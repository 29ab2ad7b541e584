"""Closed loop of single-record predictions inside one process.

One caller: each request is `normalize` + `Model.predict` on one record,
sent only after the previous one returned. Run by run.py as

    python loop.py MODEL REQUESTS.npy START COUNT OUT.npz

where REQUESTS.npy holds (N, 5, 3) raw keypoints; requests START,
START+1, ... wrap around N. OUT.npz gets the latency of each request in
ns and the (yaw, pitch, roll, log-variances...) of each one, for the
caller to check.
"""

from __future__ import annotations

import sys
import time

import numpy as np
from headpose import KeypointSet, normalize
from headpose.formats import read_model


def main(model_path: str, requests_path: str, start: int, count: int, out_path: str) -> None:
    model = read_model(model_path)
    kps = np.load(requests_path)
    order = [(start + i) % len(kps) for i in range(count)]
    requests = [KeypointSet.from_triplets(kps[j].tolist()) for j in order]
    latency = np.empty(count, dtype=np.int64)
    outputs = []
    for i, request in enumerate(requests):
        t0 = time.perf_counter_ns()
        estimate = model.predict(normalize(request))
        latency[i] = time.perf_counter_ns() - t0
        pose = estimate.pose
        lv = [] if estimate.log_variance is None else list(estimate.log_variance)
        outputs.append([pose.yaw, pose.pitch, pose.roll, *lv])
    np.savez(out_path, latency_ns=latency, index=np.array(order), outputs=np.array(outputs))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), sys.argv[5])
