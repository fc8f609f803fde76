"""Placement: simulated-annealing placer for LUT netlists on the tile grid."""
