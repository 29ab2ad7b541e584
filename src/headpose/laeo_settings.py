"""Settings of mutual-gaze scoring: the gate modes and the default cutoffs.

`laeo` scores with them, and the CLI offers them as the choices and
defaults of its `laeo` flags. They sit apart from `laeo` so that building
the CLI's parser loads no scoring code.
"""

GATE_MODES = ("interval", "open-below", "off")

DEFAULT_DELTA = 7.0  # log-variance bound of the gate
DEFAULT_TAU = 0.93  # pair-score cutoff for a mutual gaze
