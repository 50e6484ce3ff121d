"""Exact calculator and search tool for logarithmic Chern classes and
Bogomolov-Gieseker discriminants of log smooth pairs."""

__version__ = "0.1.0"  # imported by serialize: keep above the imports

from .bg import (BGReport, check_equality_n, check_equality_n_plus_1,
                 discriminant, full_report)
from .chow import (ChowError, CycleClass, GradeError, ModelMismatchError,
                   degree, mul, pair_with_polarization)
from .logchern import (LogPair, hypersurface_pair, log_c1, log_c2, log_chern,
                       pn_pair, slope, wedge_cotangent_slope)
from .models import (AmbientModel, ChernData, c_infinity, canonical_class,
                     default_polarization, hirzebruch, hypersurface, is_nef,
                     projective_space, tangent_chern)
from .search import EqualityCase, SearchConfig, enumerate_cases
