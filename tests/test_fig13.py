"""Figure 13's prediction-accuracy rows, pinned bit for bit.

Fig. 13 scores each run's measured demand with the multicommodity LP
over the run's own topology (``FlowTemplate.from_topology``), a path
the search's differential tests do not cover.  ``tests/data/fig13_quick.json``
holds the measured and predicted throughput of every quick-run row;
regenerate it only for a change that is meant to move them.
"""

import json
import os

from repro.experiments.registry import run_experiment

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_quick_rows_match_golden():
    with open(os.path.join(DATA, "fig13_quick.json")) as fh:
        golden = json.load(fh)
    result = run_experiment("fig13", quick=True)
    rows = [
        {
            "machine": machine,
            "dataset": dataset,
            "gpus": gpus,
            "measured": float(row["measured"]),
            "predicted": float(row["predicted"]),
        }
        for (machine, dataset, gpus), row in result.data.items()
    ]
    assert rows == golden
