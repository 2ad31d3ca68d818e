"""The benchmark's inputs: the pool, Figures 2-5's items, the service job
universe, and the reference digests their outputs are checked against.

Imported by ``child.py`` only (it imports ``repro``); ``run.py`` stays
stdlib-only so that it can refuse to run where the program is absent.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.config import ProcessorConfig
from repro.experiments import figures
from repro.experiments.runner import SCALES, figure2_config
from repro.service.spec import JobSpec
from repro.trace.categories import CATEGORIES
from repro.trace.workloads import Workload, WorkloadPool, build_pool

SCALE = SCALES["smoke"]
BACKEND = "cloop"
REFERENCE_FILE = Path(__file__).resolve().with_name("reference.json")

#: Figures 2-5: the issue-queue study.
IQ_FIGURES = {
    "fig2": figures.figure2_iq_throughput,
    "fig3": figures.figure3_copies,
    "fig4": figures.figure4_iq_stalls,
    "fig5": figures.figure5_imbalance,
}

#: The service workload's job universe: one policy x one category x IQ size.
SERVICE_POLICIES = ("icount", "cssp", "stall", "cdprf")
SERVICE_IQ = (32, 48)
SERVICE_CATEGORIES = CATEGORIES


def digest(obj) -> str:
    """Content digest of a JSON-serializable object (key order ignored)."""
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def load_pool(pool_seed: int) -> WorkloadPool:
    """The smoke-scale Table 2 pool for ``pool_seed`` (2008 = the paper's)."""
    s = SCALE
    return build_pool(
        n_uops=s.n_uops,
        n_ilp=s.n_ilp,
        n_mem=s.n_mem,
        n_mix=s.n_mix,
        n_mixes_category=s.n_mixes_category,
        seed=pool_seed,
    )


def iq_items(pool: WorkloadPool) -> list[tuple[ProcessorConfig, str, Workload]]:
    """Every (config, policy, workload) simulation of Figures 2-5."""
    return [
        (figure2_config(iq), policy, wl)
        for iq in (32, 64)
        for policy in figures.IQ_SCHEMES
        for wl in pool
    ]


def service_spec(policy: str, category: str, iq: int) -> dict:
    """Body of one service sweep job."""
    return {"scale": SCALE.name, "policy": policy, "category": category,
            "iq_entries": iq}


def service_items(
    pool: WorkloadPool, jobs: list[dict]
) -> list[tuple[ProcessorConfig, str, Workload]]:
    """The distinct simulations the service ``jobs`` name."""
    out, seen = [], set()
    for body in jobs:
        spec = JobSpec.from_json("sweep", body)
        for wl in spec.workloads(pool):
            ident = (body["iq_entries"], spec.policies[0], wl.category, wl.name)
            if ident not in seen:
                seen.add(ident)
                out.append((spec.config(), spec.policies[0], wl))
    return out


def service_record_id(iq: int, record_name: str) -> str:
    """Reference-file key of one service result record."""
    return f"{iq}|{record_name}"


def load_reference(pool_seed: int) -> dict | None:
    """Reference digests recorded for ``pool_seed`` (None if never recorded)."""
    try:
        data = json.loads(REFERENCE_FILE.read_text())
    except FileNotFoundError:
        return None
    return data.get(str(pool_seed))
