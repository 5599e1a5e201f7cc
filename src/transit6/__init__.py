"""Deterministic simulation of IPv6 traffic crossing IPv4 infrastructure.

The package studies the two mechanisms of RFC 4213, dual stack and 6in4
tunnelling. It stacks up in layers: ``codec`` holds the addresses, checksum
and frame checks of the bit-exact IPv4/IPv6 wire format, ``addressing`` the
routing prefixes and tunnel address derivations, ``transition`` the mechanisms themselves (6in4 encapsulation and
dual-stack dispatch), ``simcore`` the event engine and forwarding rules,
``scenario_io`` the scenario file format, ``scenarios`` the builders of the
two built-in topologies, ``metrics`` the per-flow summaries, and ``cli`` the
command line front end. Names are imported from the module that defines them.
"""
