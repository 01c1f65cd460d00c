"""Per-layer numbers from the spans that bench/launch.py records.

A span is [id, name, start, end, parent, thread, note].  busy time is the
summed duration of a layer's spans (summed over threads, so it can exceed its
share of the wall clock when the certificate's direction pool runs).  Self
time attributes the wall clock: at every instant the elapsed time is split
equally among the innermost open spans, those with no open child on any
thread.  Self times therefore sum exactly to the root span's duration.
"""

from __future__ import annotations

from collections import defaultdict

LAYER_UNITS = {
    "dynamics.propagate.calls": "count",
    "dynamics.propagate.busy_s": "s",
    "dynamics.propagate.us_per_call": "us",
    "dynamics.propagate.segment_steps": "count",
    "dynamics.objective.calls": "count",
    "dynamics.objective.busy_s": "s",
    "numerics.unitarity_defect.calls": "count",
    "numerics.unitarity_defect.busy_s": "s",
    "dynamics.dyson_forms.calls": "count",
    "dynamics.dyson_forms.busy_s": "s",
    "dynamics.dyson_forms.ms_per_direction": "ms",
    "landscape.differential.busy_s": "s",
    "landscape.taylor_fit.calls": "count",
    "landscape.taylor_fit.busy_s": "s",
    "landscape.taylor_fit.self_s": "s",
    "landscape.taylor_fit.propagations": "count",
    "landscape.taylor_fit.accepted_ratio": "ratio",
    "landscape.witness_search.calls": "count",
    "landscape.witness_search.busy_s": "s",
    "landscape.witness_search.self_s": "s",
    "landscape.witness_search.evaluations": "count",
    "landscape.witness_search.success_ratio": "ratio",
    "landscape.lie_rank.busy_s": "s",
    "landscape.lie_rank.dimension": "count",
    "landscape.lie_rank.depth_reached": "count",
    "landscape.trap_certificate.busy_s": "s",
    "landscape.trap_certificate.self_s": "s",
    "cli.parse_config.busy_s": "s",
    "cli.self_s": "s",
    "trace.threads": "count",
    "trace.self_sum_s": "s",
}


def self_times(spans: list[list]) -> dict[int, float]:
    """Wall time attributed to each span id while it is an innermost open span."""
    parent = {s[0]: s[4] for s in spans}
    events = []
    for s in spans:
        events.append((s[2], 1, s[0]))
        events.append((s[3], 0 if s[3] > s[2] else 2, s[0]))  # a close sorts after its own open
    events.sort()
    open_children: dict[int, int] = defaultdict(int)
    is_open: set[int] = set()
    leaves: set[int] = set()
    attributed: dict[int, float] = defaultdict(float)
    last = None
    for t, kind, sid in events:
        if leaves:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                attributed[leaf] += share
        last = t
        p = parent[sid]
        if kind == 1:
            is_open.add(sid)
            leaves.add(sid)
            if p in is_open:
                open_children[p] += 1
                leaves.discard(p)
        else:
            is_open.discard(sid)
            leaves.discard(sid)
            if p in is_open:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    return attributed


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Every LAYER_UNITS metric for one traced invocation."""
    attributed = self_times(spans)
    by_id = {s[0]: s for s in spans}
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    notes: dict[str, list] = defaultdict(list)
    fit_propagations = 0
    for s in spans:
        name = s[1]
        calls[name] += 1
        busy[name] += s[3] - s[2]
        own[name] += attributed.get(s[0], 0.0)
        if s[6] is not None:
            notes[name].append(s[6])
        if name == "dynamics.propagate" and s[4] is not None and by_id[s[4]][1] == "landscape.taylor_fit":
            fit_propagations += 1

    def per_call(name: str, scale: float) -> float:
        return busy[name] / calls[name] * scale if calls[name] else 0.0

    def ratio(name: str, key: str) -> float:
        return sum(1 for n in notes[name] if n[key]) / calls[name] if calls[name] else 0.0

    lie = notes["landscape.lie_rank"][-1] if notes["landscape.lie_rank"] else {}
    out = {
        "dynamics.propagate.calls": calls["dynamics.propagate"],
        "dynamics.propagate.busy_s": busy["dynamics.propagate"],
        "dynamics.propagate.us_per_call": per_call("dynamics.propagate", 1e6),
        "dynamics.propagate.segment_steps": sum(n["segments"] for n in notes["dynamics.propagate"]),
        "dynamics.objective.calls": calls["dynamics.objective"],
        "dynamics.objective.busy_s": busy["dynamics.objective"],
        "numerics.unitarity_defect.calls": calls["numerics.unitarity_defect"],
        "numerics.unitarity_defect.busy_s": busy["numerics.unitarity_defect"],
        "dynamics.dyson_forms.calls": calls["dynamics.dyson_forms"],
        "dynamics.dyson_forms.busy_s": busy["dynamics.dyson_forms"],
        "dynamics.dyson_forms.ms_per_direction": per_call("dynamics.dyson_forms", 1e3),
        "landscape.differential.busy_s": busy["landscape.differential"],
        "landscape.taylor_fit.calls": calls["landscape.taylor_fit"],
        "landscape.taylor_fit.busy_s": busy["landscape.taylor_fit"],
        "landscape.taylor_fit.self_s": own["landscape.taylor_fit"],
        "landscape.taylor_fit.propagations": fit_propagations,
        "landscape.taylor_fit.accepted_ratio": ratio("landscape.taylor_fit", "accepted"),
        "landscape.witness_search.calls": calls["landscape.witness_search"],
        "landscape.witness_search.busy_s": busy["landscape.witness_search"],
        "landscape.witness_search.self_s": own["landscape.witness_search"],
        "landscape.witness_search.evaluations": sum(n["evaluations"] for n in notes["landscape.witness_search"]),
        "landscape.witness_search.success_ratio": ratio("landscape.witness_search", "success"),
        "landscape.lie_rank.busy_s": busy["landscape.lie_rank"],
        "landscape.lie_rank.dimension": lie.get("dimension", 0),
        "landscape.lie_rank.depth_reached": lie.get("depth_reached", 0),
        "landscape.trap_certificate.busy_s": busy["landscape.trap_certificate"],
        "landscape.trap_certificate.self_s": own["landscape.trap_certificate"],
        "cli.parse_config.busy_s": busy["cli.parse_config"],
        "cli.self_s": own["cli"],
        "trace.threads": len({s[5] for s in spans}),
        "trace.self_sum_s": sum(attributed.values()),
    }
    return out
