"""Deterministic multi-drone simulator with PD flight control, a
light-detecting onboard camera, range-and-bearing messaging, and a cubic
battery-discharge model."""

from .battery import (
    BatteryModel,
    BatteryModelError,
    battery_next_charge,
    battery_time_to_empty,
    fit_discharge_polynomial,
)
from .camera import CameraConfig, Detection, RESOLUTION, project_light
from .control import (
    Command,
    ControllerLimits,
    ControllerMemory,
    DroneState,
    GainSet,
    PDGains,
    drone_control_step,
    integrate,
    position_control_step,
    velocity_control_step,
)
from .geometry import body_to_world, saturate, wrap_deg
from .rab import PayloadError, RabConfig, RabReading
from .scenario import (
    DroneSpec,
    LightSpec,
    Scenario,
    ScenarioError,
    WaypointPlan,
    load_scenario,
    load_scenario_file,
    render_scenario,
)
from .trajectory import (
    Summary,
    Trajectory,
    TrajectoryRow,
    export_plot_columns,
    mse,
    summarize,
    trajectory_csv,
    write_trajectory,
)
from .world import (
    CapabilityError,
    ConfigurationError,
    World,
    camera_capture,
    create_world,
    rab_read,
    rab_send,
    run,
    run_scenario,
    set_led,
    step,
)

__version__ = "0.1.0"
