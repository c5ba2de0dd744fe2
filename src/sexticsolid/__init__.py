"""sexticsolid: exact verification of a nodal-sextic quadric-bundle
construction over a prime field.

The library builds a family of quadric surfaces over P^3 from a cubic
hypersurface containing a plane, extracts the degree-6 determinantal branch
surface, certifies its singular scheme (31 reduced nodes for a general
instance), the Gram-rank stratification, the matching census for the double
solid branched along it, the smoothness of the ambient cubic, and the even
intersection pairings on smooth fibers.  Everything is computed exactly
over F_p from one integer seed.
"""

from .bundle import (CubicData, SmoothnessReport, cubic_equation, discriminant,
                     explicit_instance_text, fiber_gram, gram_matrix,
                     load_instance, parse_instance, random_instance,
                     smoothness_spotcheck)
from .exactalg import SplitMix64
from .fibers import (FiberSample, PairingCertificate, fiber_rank_check,
                     pairing_certificate, sample_off_delta, sample_on_delta,
                     sigma_sample)
from .groebner import (DEFAULT_BUDGET, GBasis, buchberger, in_radical,
                       is_irrelevant, is_zero_dimensional, mult_matrix,
                       normal_form, quotient_dim, reducedness_certificate,
                       standard_monomials)
from .multipoly import (MultiPoly, format_poly, grevlex_key, mp_det, parse_poly,
                        restrict_to_line)
from .singular import (EXPECTED_NODE_COUNT, SingularCensusReport,
                       StrataReport, double_solid_census, node_census,
                       rank_stratum_ideal, smoothness_certificate, strata_check)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
