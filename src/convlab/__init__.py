"""convlab: a desk-scale numerical lab for fibered convexity phenomena.

The package verifies, by independent numerical routes, a family of claims
about log-mass transforms of weights on fibered domains: when marginal
convexity survives, when kernel localization recovers pointwise values, and
the certified counterexamples where each mechanism breaks.  Everything is
organized so that each quantity has at least two ways of being computed --
closed form against quadrature, radial moments against gram matrices,
geometric distance against sampled analytic discs -- and the scenario layer
asserts their agreement at stated tolerances.
"""

from .errors import (ConvlabError, DiscEscapesDomain, DivergentIntegral,
                     IllConditioned, InvalidParam, MethodUnavailable,
                     NonConvergent, OutOfDomain, PointOutsideDomain, Unbounded,
                     UnknownName, UnknownScenario, ZeroKernel)
from .numerics import (BallVolume, MinConfig, QuadConfig, integrate_1d,
                       integrate_fiber, kahan_total, minimize_over_fiber,
                       skirt_ladder)
from .geometry import (AffineFiberMap, AnalyticDisc, Ball, Box, Complement,
                       Domain, Empty, FiberDomain, Full, Intersection, Union,
                       ball_domain, bidisc, boundary_distance, box_domain,
                       disc_distance_check, disc_region, dumbbell, fiber,
                       fiber_distance, full_space, hartogs_figure,
                       midpoint_closure_check, plane_region, punctured_ball)
from .weights import (RadialProfile, WeightField, constant_weight,
                      convex_localizer, lemma3_weight, stock_weight,
                      psh_localizer, weight_from_fn)
from .prekopa import (ConvexityReport, MarginalCurve, convexity_check,
                      dent_marginal_closed, infimum_over_fiber,
                      localization_rows, marginal_transform,
                      midpoint_divergence_probe, min_principle_transform,
                      sample_marginal_curve, twisted_marginal)
from .bergman import (GramKernel, MomentTable, bergman_gram, bergman_radial,
                      berndtsson_inner_laplacian, berndtsson_m0_closed,
                      berndtsson_phi_closed, berndtsson_phi_curve,
                      berndtsson_profile, gram_kernel, kernel_curve,
                      laplacian_check, lemma2_harness, lemma3_harness,
                      psh_mean_value_check, radial_moments)
from .scenarios import (Check, RunReport, list_scenarios, load_defaults,
                        run_scenario, scenario_names)

__version__ = "0.1.0"
