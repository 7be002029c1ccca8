"""Power-aware rendering governor with a simulated GPU backend."""

from .configspace import (
    PassDescriptor,
    PassRoster,
    RenderingConfiguration,
    config_at,
    config_index,
    enumerate_configurations,
    single_degradation_config,
)
from .governor import (
    Governor,
    GovernorConfig,
    accuracy_check,
    budget_watts,
    select_configuration,
    select_configuration_error_budget,
    temporal_filter,
)
from .powermodel import (
    CostTable,
    PowerModel,
    SaturationConstants,
    UnitCosts,
    coefficients_for_config,
    fit_coefficients,
    linearize,
    predict_all,
    predict_power,
    solve_unit_costs,
)
from .quality import (
    ErrorModel,
    ErrorRatioTable,
    FrameImage,
    calibrate_ratios,
    estimate_error,
    quality_error,
    ssim,
    update_worst_errors,
)
from .scenario import Scenario, ScenarioError, load_scenario
from .simgpu import (
    FrameSynthesizer,
    HiddenPowerOracle,
    SceneTrace,
    empty_trace,
    exact_power,
    measure_power,
    probe_min_power,
    probe_saturation,
    render_frame,
)

__version__ = "0.1.0"
