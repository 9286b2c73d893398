"""Shared generators for exact-arithmetic fixtures."""

from parachern.forms import random_exact_curvature as rand_exact_hermitian_curvature
from parachern.forms import random_qqi as rand_qqi
