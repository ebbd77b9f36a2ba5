"""Symbolic engine for free non-commutative dg-algebras over idempotents."""

from .coefficients import (CoeffRing, NotAUnitError, RingMismatchError, gf2,
                           laurent, rationals)
from .algebra import (Element, Generator, Idempotent, Presentation,
                      PresentationError, IncompletePresentationError,
                      POTENTIAL_MINUS, POTENTIAL_PLUS, Word)
from .analysis import (Bounds, DSquaredReport, ExactnessResult, H0Report,
                       NonHomogeneousTargetError, ParityReport,
                       TrivialityResult, UnsupportedPresentationError,
                       check_d_squared, check_parity_flip, composable_words,
                       exactness_search, h0, is_trivial)
from .morphisms import (Augmentation, AugmentationReport, ChainMapReport,
                        GenMap, MapError, ObstructionReport, ScopeError,
                        UnsupportedCodomainError, UnverifiedAugmentationError,
                        compose, identity_map, obstruct_y_filling,
                        partial_linearize, verify_augmentation,
                        verify_chain_map)
from .catalog import (ALTERNATING, UNIFORM_MINUS, CatalogBundle,
                      InvalidFamilyError, add_hat_family, add_point_family,
                      catalog_names, example, free_product,
                      make_hat_point_algebra, make_point_algebra)

__version__ = "0.1.0"
