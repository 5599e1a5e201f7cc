"""Deterministic simulation of IPv6 traffic crossing IPv4 infrastructure.

The package studies the two mechanisms of RFC 4213, dual stack and 6in4
tunnelling. It stacks up in layers: ``codec`` holds the bit-exact IPv4/IPv6
header formats, ``addressing`` the routing prefixes and tunnel address
derivations, ``transition`` the mechanisms themselves (6in4 encapsulation and
dual-stack dispatch), ``simcore`` the event engine and forwarding rules,
``scenario_io`` the scenario file format, ``scenarios`` the builders of the
two built-in topologies, ``metrics`` the per-flow summaries, and ``cli`` the
command line front end.
"""

from .addressing import (
    AddressingError,
    FamilyMismatchError,
    Ipv4Prefix,
    Ipv6Prefix,
    Not6to4Error,
    NotCompatibleError,
    derive_6to4_prefix,
    derive_isatap_address,
    extract_6to4_ipv4,
    extract_compatible_ipv4,
    make_ipv4_compatible,
)
from .codec import (
    BadIhlError,
    BadVersionError,
    CodecError,
    FrameKind,
    InvalidHeaderError,
    Ipv4Address,
    Ipv4Header,
    Ipv6Address,
    Ipv6Header,
    LengthMismatchError,
    Packet,
    TooShortError,
    frame_packet,
    internet_checksum,
    ipv4_header_checksum,
    parse_frame,
    parse_ipv4_header,
    parse_ipv6_header,
    serialize_ipv4_header,
    serialize_ipv6_header,
    verify_ipv4_checksum,
)
from .metrics import (
    ComparisonRow,
    FlowMismatchError,
    FlowSummary,
    compare_scenarios,
    summarize,
)
from .scenario_io import (
    ScenarioError,
    ScenarioParseError,
    ScenarioValidationError,
    build_model,
    load_text,
    parse_text,
    serialize_model,
)
from .scenarios import build_scenario_6to4, build_scenario_dualstack
from .simcore import (
    DropReason,
    Interface,
    InvalidTopologyError,
    InvalidTrafficError,
    Link,
    MetricsRecord,
    Node,
    NodeKind,
    NoRouteError,
    RecordTable,
    Role,
    RouteEntry4,
    RouteEntry6,
    Scenario,
    Topology,
    TrafficSpec,
    forward,
    route_lookup,
    run_simulation,
)
from .transition import (
    BadChecksumError,
    InvalidInnerError,
    NoEndpointError,
    NotTunneledError,
    PathKind,
    TunnelConfig,
    TunnelKind,
    UnknownVersionError,
    decapsulate_6in4,
    dual_stack_dispatch,
    encapsulate_6in4,
    resolve_tunnel_endpoint,
)

__version__ = "0.1.0"
