"""Seeded inputs and the operation mix of each benchmark workload.

Every workload runs the three user commands ``compute``, ``probe`` and
``verify``, because every run reports every end-to-end metric.  What
differs is the input each command gets, and so the layer that does the work:

``cantor5``
    The fat-Cantor stage-5 model (6,144 cells, 1,056 singular vectors,
    6 functions), written by the same code as ``regpart example cantor
    --stage 5``.  The model ignores the seed; only the ``verify`` seed
    follows it.  The dense V-space algebra in ``completion`` and
    ``diagnostics`` does almost all the work.  Stage 6 is left out: it
    peaks at 7.3 GB, more than a 7 GB machine holds.
``field2d``
    A seeded random 2-D model on a 160 x 160 grid (25,600 cells) from
    ``randomized.random_coefficients``.  ``Q`` projects onto random
    eigenspaces of ``Z`` inside the central 0.1 x 0.1 square only (about
    250 singular vectors); four bumps of width 0.3 sit at seeded centres.
    Parsing, canonical writing and the per-cell layers do the work.
``verify``
    ``verify --trials 10000`` (500 oracle models, 30,000 identity draws),
    plus ``compute`` and ``probe`` on 200 small seeded oracle models, 40
    of each (dimension, commuting) class.  Many tiny V-spaces: per-call
    overhead dominates.
"""

import json
import os

import numpy as np

from regpart.grid import GridSpec
from regpart.model import derive_fields
from regpart.modelio import (complex_to_json, make_model_doc, q_matrix_spec,
                             write_doc)
from regpart.pipeline import cantor_model_doc
from regpart.randomized import commuting_projection_field, \
    random_coefficients, random_oracle_case

__all__ = ["WORKLOADS", "MANIFEST", "SIZES", "generate", "round_ops"]

WORKLOADS = ("cantor5", "field2d", "verify")

#: File written next to the models, describing what ``generate`` made.
MANIFEST = "manifest.json"

#: Full sizes, and the reduced sizes the benchmark's own tests use.
SIZES = {
    False: {"cantor_stage": 5, "field_cells": 160, "small_per_class": 40,
            "verify_trials": 10000},
    True: {"cantor_stage": 3, "field_cells": 40, "small_per_class": 1,
           "verify_trials": 400},
}

#: (dimension, commuting) classes of the small oracle models.
SMALL_CLASSES = ((1, True), (2, True), (3, True), (2, False), (3, False))


def field2d_doc(seed, cells):
    """Random 2-D model whose singular directions live in a small square."""
    rng = np.random.default_rng(seed)
    grid = GridSpec(dim=2, box=((0.0, 1.0), (0.0, 1.0)),
                    cells_per_axis=(cells, cells))
    coeffs = random_coefficients(rng, grid)
    q = commuting_projection_field(rng, derive_fields(coeffs))
    inside = np.all(np.abs(grid.cell_centers() - 0.5) < 0.05, axis=1)
    q[~inside] = 0.0
    centers = rng.uniform(0.35, 0.65, size=(4, 2))
    specs = [{"name": "bump%d" % k, "kind": "bump",
              "center": [float(x) for x in c], "width": [0.3]}
             for k, c in enumerate(centers)]
    return make_model_doc(coeffs, q_matrix_spec(q), specs)


def small_oracle_doc(rng, dim, commuting):
    """One pre-validated random oracle case as a model document."""
    case = random_oracle_case(rng, dim=dim, commuting=commuting)
    specs = [{"name": "f%d" % k, "kind": "samples",
              "cell_values": complex_to_json(f.cell_values),
              "cell_gradient": complex_to_json(f.cell_gradient)}
             for k, f in enumerate(case.funcs)]
    return make_model_doc(case.coeffs, q_matrix_spec(case.q_field), specs)


def generate(workload, seed, out_dir, smoke=False):
    """Write the workload's model files and manifest into ``out_dir``."""
    size = SIZES[smoke]
    docs = {}
    if workload == "cantor5":
        docs["cantor"] = cantor_model_doc(size["cantor_stage"])
    elif workload == "field2d":
        docs["field2d"] = field2d_doc(seed, size["field_cells"])
    elif workload == "verify":
        rng = np.random.default_rng(seed)
        for dim, commuting in SMALL_CLASSES:
            for k in range(size["small_per_class"]):
                name = "small-d%d-%s-%d" % (dim, "c" if commuting else "n", k)
                docs[name] = small_oracle_doc(rng, dim, commuting)
    else:
        raise ValueError("unknown workload %r" % workload)
    models = {}
    for name, doc in docs.items():
        path = os.path.join(out_dir, name + ".model.json")
        write_doc(path, doc)
        models[name] = os.path.basename(path)
    manifest = {"workload": workload, "seed": int(seed), "smoke": smoke,
                "models": models, "verify_trials": size["verify_trials"],
                "cantor": workload == "cantor5"}
    with open(os.path.join(out_dir, MANIFEST), "w") as handle:
        json.dump(manifest, handle, sort_keys=True)
    return manifest


def round_ops(manifest, model_dir):
    """One round of the workload: ``compute`` and ``probe`` on each model,
    then one ``verify``.  Returns ``(kind, model_name, argv_for(out))``
    triples; ``argv_for`` maps an output path to the command line."""
    ops = []
    for name, fname in sorted(manifest["models"].items()):
        path = os.path.join(model_dir, fname)
        ops.append(("compute", name,
                    lambda out, p=path: ["compute", "--model", p,
                                         "--out", out]))
        ops.append(("probe", name,
                    lambda out, p=path: ["probe", "--model", p,
                                         "--out", out]))
    trials = str(manifest["verify_trials"])
    seed = str(manifest["seed"])
    ops.append(("verify", None,
                lambda out: ["verify", "--trials", trials, "--dims", "1,2,3",
                             "--seed", seed]))
    return ops
