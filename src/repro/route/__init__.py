"""Routing: negotiated-congestion (PathFinder) router and the SE-chain /
double-length-line timing model."""

from repro.route.pathfinder import (
    RouteResult,
    RoutedNet,
    RouteTree,
    route_context,
    route_program,
)
from repro.route.timing import DelayModel, path_delay, route_tree_delays

__all__ = [
    "DelayModel",
    "RouteResult",
    "RoutedNet",
    "RouteTree",
    "path_delay",
    "route_context",
    "route_program",
    "route_tree_delays",
]
