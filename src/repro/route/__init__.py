"""Routing: negotiated-congestion (PathFinder) router and the SE-chain /
double-length-line timing model."""

from repro.route.pathfinder import (
    RouteResult,
    RoutedNet,
    RouteTree,
    route_context_compiled,
    route_program_compiled,
)
from repro.route.timing import DelayModel, path_delay, route_tree_delays

__all__ = [
    "DelayModel",
    "RouteResult",
    "RoutedNet",
    "RouteTree",
    "path_delay",
    "route_context_compiled",
    "route_program_compiled",
    "route_tree_delays",
]
