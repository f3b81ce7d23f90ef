"""udlab: a numerical laboratory for uniform distribution modulo one.

Submodules:

  expr         closed-form expressions: parse, evaluate, Taylor jets,
               linear-independence testing
  sequences    sequence families a(n) and averaging index-set families
  scatter      scattered-sum statistics and the pairwise growth condition
  weyl         exponential-sum averages with precision-safe phase reduction
  discrepancy  star discrepancy, exact in low dimension
  oscillatory  oscillatory integrals, derivative-test bounds, decay fits
  lab          config-driven experiments, CSV/SVG emission
  cli          command-line entry point (also `python -m udlab.cli`)
"""

# defined before the submodule imports: lab reads it for provenance
__version__ = "0.1.0"

from .expr import (DomainError, ExprSyntaxError, IndependenceReport, TaylorJet,
                   check_linear_independence, eval_jet, eval_jet_many, evaluate,
                   parse_expr, to_text)
from .sequences import (IndexSetFamily, SequenceSpec, compose, custom_nested,
                        geometric, identity, index_sets, iterated_exp,
                        linear_combination, log_power, make_sequence,
                        n_plus_log, parse_sequence_spec, power, prefixes,
                        spec_to_text, sqrt_residue, strided)
from .scatter import (GrowthReport, ScatterReport, fit_scatter,
                      joint_scatter_check, scatter_sum, weyl_growth_check)
from .weyl import (PointGenerator, ProductCoord, RawCoord, TowerCoord,
                   WeylSumSeries, cesaro_gap, max_weyl_sum, sublacunary_grid,
                   weyl_sum, weyl_sum_over_sets)
from .discrepancy import (DiscrepancyReport, star_discrepancy_1d,
                          star_discrepancy_kd, ud_trend)
from .oscillatory import (OscillatoryDecayFit, OscillatoryEstimate, decay_fit,
                          osc_integral, vdc_bound_first, vdc_bound_high)
from .lab import (ExperimentConfig, ExperimentReport, emit_csv, emit_svg,
                  run_experiment)
