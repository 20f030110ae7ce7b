"""The calibration table: every number the packet and fluid engines share.

Each is assigned here once and imported as a module global by the packet
classes (:mod:`repro.cca`, :mod:`repro.aqm`), the per-flow fluid rules
(:mod:`repro.fluid.cca_rules`) and the vector kernels
(:mod:`repro.fluid.batched`), so changing one is one edit.  Units are the
packet engine's: segments, and integer ns or seconds as it keeps each time
(the fluid engines divide ns by ``1e9``, which is exact here).  A number
only one engine models stays in that engine.  This module imports nothing
from :mod:`repro` but :mod:`repro.units`, so either engine loads it free.
"""

from __future__ import annotations

from repro.units import milliseconds, seconds

INITIAL_CWND_SEGMENTS = 10.0
MIN_CWND_SEGMENTS = 2.0  # floor of a loss-based window after a decrease

# --- Reno (RFC 5681), CUBIC (RFC 9438), H-TCP (Leith & Shorten 2004) ----------
RENO_BETA = 0.5
CUBIC_C = 0.4  # segments/s^3
CUBIC_BETA = 0.7
#: Per-RTT growth of the TCP-friendly (Reno-tracking) window estimate.
CUBIC_FRIENDLY_INC = 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA)
#: Per-RTT growth on the plateau, where the cubic target is behind the window.
CUBIC_PLATEAU_INC = 0.01
#: HyStart (RFC 9406) leaves slow start once a round's RTT exceeds the base
#: RTT by base/8 clamped to [4, 16] ms, from a 16-segment window on.
HYSTART_ETA_MIN_NS = milliseconds(4)
HYSTART_ETA_MAX_NS = milliseconds(16)
HYSTART_ETA_DIVISOR = 8
HYSTART_LOW_WINDOW = 16.0
HTCP_DELTA_L_S = 1.0  # low-speed regime threshold
HTCP_BETA_MIN = 0.5
HTCP_BETA_MAX = 0.8

# --- BBR, both versions -------------------------------------------------------
BBR_MIN_CWND = 4.0  # lowest window / inflight cap
BBR_BTLBW_WINDOW_ROUNDS = 10
BBR_MIN_RTT_WINDOW_NS = seconds(10)
BBR_PROBE_RTT_DURATION_NS = milliseconds(200)
#: STARTUP ends after this many rounds without this much bandwidth growth.
BBR_FULL_BW_COUNT = 3
BBR_FULL_BW_THRESH = 1.25

# --- BBRv1 (Linux tcp_bbr.c) --------------------------------------------------
BBR_HIGH_GAIN = 2.885  # 2/ln(2)
BBR_DRAIN_GAIN = 1.0 / BBR_HIGH_GAIN
BBR_CWND_GAIN = 2.0
BBR_PROBE_UP_GAIN = 1.25
BBR_PROBE_DOWN_GAIN = 0.75
BBR_PACING_CYCLE = (BBR_PROBE_UP_GAIN, BBR_PROBE_DOWN_GAIN, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
#: PROBE_BW starts at a phase drawn from [this, len(cycle)): never a probing one.
BBR_CYCLE_FIRST_CRUISE = 2
#: PROBE_RTT comes once the min RTT is a min-RTT window old.
BBR_PROBE_RTT_INTERVAL_NS = BBR_MIN_RTT_WINDOW_NS
#: The packet engine's PROBE_RTT window (the fluid engines cap inflight at a
#: fraction of the BDP instead: repro.fluid.cca_rules.BBR1_PROBE_RTT_CAP_GAIN).
BBR_PROBE_RTT_CWND = 4.0

# --- BBRv2 (Linux v2alpha) ----------------------------------------------------
BBR2_STARTUP_PACING_GAIN = 2.77
BBR2_DRAIN_GAIN = 1.0 / BBR2_STARTUP_PACING_GAIN
BBR2_STARTUP_CWND_GAIN = 2.0
BBR2_CWND_GAIN = 2.0
BBR2_DOWN_GAIN = 0.9
BBR2_UP_GAIN = 1.25
#: A round losing this share, and at least this many packets, is high-loss.
BBR2_LOSS_THRESH = 0.02
BBR2_LOSS_MIN_PACKETS = 2
BBR2_BETA = 0.7  # inflight-bound decrease after a high-loss round
BBR2_HEADROOM = 0.15  # share of inflight_hi left free while cruising
BBR2_PROBE_UP_MAX_RTTS = 4
BBR2_PROBE_RTT_INTERVAL_NS = seconds(5)
BBR2_PROBE_RTT_CWND_GAIN = 0.5  # PROBE_RTT window, times the BDP
BBR2_CRUISE_MIN_S = 2.0
BBR2_CRUISE_MAX_S = 3.0

# --- AQMs: RED (`tc red` guidance), CoDel (RFC 8289), PIE (RFC 8033) ----------
#: RED's fixed thresholds in average packets, not retuned per bandwidth tier
#: (paper §5.3), clamped to these (numerator, denominator) shares of a
#: smaller buffer.
RED_MIN_TH_PACKETS = 30
RED_MAX_TH_PACKETS = 90
RED_MIN_TH_OF_BUFFER = (1, 3)
RED_MAX_TH_OF_BUFFER = (3, 4)
RED_MAX_P = 0.02
RED_WEIGHT = 0.002
RED_GENTLE = True
CODEL_TARGET_NS = milliseconds(5)  # also each FQ_CoDel sub-queue's
CODEL_INTERVAL_NS = milliseconds(100)
PIE_TARGET_NS = milliseconds(15)
PIE_T_UPDATE_NS = milliseconds(15)
PIE_ALPHA = 0.125  # Hz
PIE_BETA = 1.25
#: PIE's gain auto-tuning: the scale of the first (bound, scale) whose
#: bound the drop probability is below, else 1.
PIE_GAIN_SCALE = (
    (0.000001, 1 / 2048), (0.00001, 1 / 512), (0.0001, 1 / 128),
    (0.001, 1 / 32), (0.01, 1 / 8), (0.1, 1 / 2),
)
PIE_IDLE_DECAY = 0.98  # per update while the queue stays empty
