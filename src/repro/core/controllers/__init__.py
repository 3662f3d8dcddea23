"""Runtime fan controllers.

The paper evaluates three schemes: the server's default fixed-speed
firmware behaviour, a reactive temperature bang-bang controller, and
the proposed proactive LUT-based controller.  Two extensions beyond
the paper — a PI temperature tracker and an oracle with perfect model
knowledge — bound the design space from both sides.
"""

from repro.core.controllers.bangbang import BangBangController, BangBangThresholds
from repro.core.controllers.coordinated import CoordinatedController
from repro.core.controllers.base import (
    ControllerObservation,
    FanController,
    LockoutController,
)
from repro.core.controllers.default import FixedSpeedController
from repro.core.controllers.lut import LUTController
from repro.core.controllers.mpc import (
    ModelPredictiveController,
    build_mpc_from_characterization,
)
from repro.core.controllers.oracle import OracleController
from repro.core.controllers.pid import PIController

__all__ = [
    "BangBangController",
    "BangBangThresholds",
    "CoordinatedController",
    "ControllerObservation",
    "FanController",
    "FixedSpeedController",
    "LockoutController",
    "LUTController",
    "ModelPredictiveController",
    "build_mpc_from_characterization",
    "OracleController",
    "PIController",
]
