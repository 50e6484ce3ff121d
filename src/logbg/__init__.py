"""Exact calculator and search tool for logarithmic Chern classes and
Bogomolov-Gieseker discriminants of log smooth pairs."""

__version__ = "0.1.0"  # imported by serialize: keep above the imports

from .bg import BGReport, full_report
from .logchern import (LogPair, hypersurface_pair, pn_pair, slope,
                       wedge_cotangent_slope)
from .models import (AmbientModel, ChowError, CycleClass, GradeError,
                     c_infinity, default_polarization, hirzebruch,
                     hypersurface, is_nef, projective_space)
from .search import EqualityCase, SearchConfig, enumerate_cases
