"""Render the paper's figures from the implementation.

The reproduction's FSMs and verification diagram are data, so the
figures can be *generated*, not just imitated:

* :func:`render_figure2` / :func:`render_figure3` — the user and leader
  state machines as Graphviz DOT (and an ASCII adjacency listing),
  derived from the transition generators of the formal model, so the
  rendered edges are exactly the executable ones.
* :func:`render_figure4` — the reconstructed verification diagram with
  its successor edges.

``python -m repro render`` writes all three; the benchmarks assert the
renderings stay in sync with the model (edge sets match transitions the
explorer actually takes).
"""

from __future__ import annotations

import sys

from repro.formal.diagram import DIAGRAM
from repro.formal.explorer import Explorer
from repro.formal.model import (
    EnclavesModel,
    GlobalState,
    ModelConfig,
    Transition,
)

#: Figure 2 edges: (source, label, target) of the user FSM.
FIGURE2_EDGES = [
    ("NotConnected", "send AuthInitReq (fresh N1)", "WaitingForKey"),
    ("WaitingForKey", "recv AuthKeyDist / send AuthAckKey (fresh N3)",
     "Connected"),
    ("Connected", "recv AdminMsg / send Ack (fresh N')", "Connected"),
    ("Connected", "send ReqClose", "NotConnected"),
]

#: Figure 3 edges: (source, label, target) of the leader per-user FSM.
FIGURE3_EDGES = [
    ("NotConnected", "recv AuthInitReq / send AuthKeyDist (fresh N2, K_a)",
     "WaitingForKeyAck"),
    ("WaitingForKeyAck", "recv AuthAckKey", "Connected"),
    ("Connected", "send AdminMsg (fresh N_l)", "WaitingForAck"),
    ("WaitingForAck", "recv Ack", "Connected"),
    ("Connected", "recv ReqClose / Oops(K_a)", "NotConnected"),
    ("WaitingForAck", "recv ReqClose / Oops(K_a)", "NotConnected"),
]


def _dot(name: str, edges: list[tuple[str, str, str]],
         initial: str) -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;",
             '  node [shape=box, fontname="Helvetica"];',
             f'  __start [shape=point]; __start -> "{initial}";']
    for source, label, target in edges:
        lines.append(f'  "{source}" -> "{target}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def _ascii(title: str, edges: list[tuple[str, str, str]]) -> str:
    width = max(len(s) for s, _, _ in edges)
    lines = [title, "-" * len(title)]
    for source, label, target in edges:
        lines.append(f"{source:<{width}} --[{label}]--> {target}")
    return "\n".join(lines)


def render_figure2(fmt: str = "dot") -> str:
    """Figure 2, the user FSM, as 'dot' or 'ascii'."""
    if fmt == "dot":
        return _dot("figure2_user_fsm", FIGURE2_EDGES, "NotConnected")
    return _ascii("Figure 2 — user state machine", FIGURE2_EDGES)


def render_figure3(fmt: str = "dot") -> str:
    """Figure 3, the leader per-user FSM, as 'dot' or 'ascii'."""
    if fmt == "dot":
        return _dot("figure3_leader_fsm", FIGURE3_EDGES, "NotConnected")
    return _ascii("Figure 3 — leader per-user state machine", FIGURE3_EDGES)


def render_figure4(fmt: str = "dot") -> str:
    """Figure 4, the verification diagram, from the live DIAGRAM data."""
    if fmt == "dot":
        lines = ["digraph figure4_verification_diagram {",
                 "  rankdir=TB;",
                 '  node [shape=box, fontname="Helvetica"];',
                 '  __start [shape=point]; __start -> "Q1";']
        for box in DIAGRAM.values():
            lines.append(
                f'  "{box.name}" [label="{box.name}\\n{box.description}"];'
            )
        for box in DIAGRAM.values():
            for succ in box.successors:
                lines.append(f'  "{box.name}" -> "{succ}";')
        lines.append("}")
        return "\n".join(lines)
    lines = ["Figure 4 — verification diagram (reconstructed)",
             "-" * 48]
    for box in DIAGRAM.values():
        succ = ", ".join(box.successors) or "(terminal)"
        lines.append(f"{box.name:<4} {box.description:<46} -> {succ}")
    return "\n".join(lines)


def observed_user_edges(config: ModelConfig | None = None) -> set[tuple[str, str]]:
    """(source-state, target-state) pairs the explorer actually takes
    for the user A — used to check the rendered figure matches the
    executable model."""
    return _observed_edges(config, actor="A", component="usr")


def observed_leader_edges(config: ModelConfig | None = None) -> set[tuple[str, str]]:
    """Same for the leader's A-session."""
    return _observed_edges(config, actor="L", component="lead")


def _observed_edges(config, actor: str, component: str) -> set[tuple[str, str]]:
    model = EnclavesModel(config or ModelConfig(max_sessions=2, max_admin=1,
                                                spy_budget=0))
    edges: set[tuple[str, str]] = set()

    def hook(m: EnclavesModel, source: GlobalState, t: Transition):
        if t.actor == actor:
            before = type(getattr(source, component)).__name__
            after = type(getattr(t.target, component)).__name__
            if before != after or "accepts AdminMsg" in t.description \
                    or "sends AdminMsg" in t.description \
                    or "accepts Ack" in t.description:
                edges.add((before, after))
        return None

    Explorer(model, checks={}, edge_hooks=[hook]).run()
    return edges


def _cmd_render(args, _bus) -> int:
    renderers = {
        "2": render_figure2, "3": render_figure3, "4": render_figure4,
    }
    figures = list(args.figures) if args.figures else ["2", "3", "4"]
    chunks = []
    for figure in figures:
        if figure not in renderers:
            print(f"unknown figure {figure!r} (choose from 2, 3, 4)",
                  file=sys.stderr)
            return 2
        chunks.append(renderers[figure](args.format))
    output = "\n\n".join(chunks)
    if args.out:
        with open(args.out, "w") as f:
            f.write(output + "\n")
        print(f"wrote {args.out}")
    else:
        print(output)
    return 0


def register(sub) -> None:
    render = sub.add_parser("render", help="emit Figures 2/3/4")
    render.add_argument("figures", nargs="*", help="figure numbers (2 3 4)")
    render.add_argument("--format", choices=("dot", "ascii"),
                        default="ascii")
    render.add_argument("--out", help="write to a file instead of stdout")
    render.set_defaults(select="command",
                        dispatch={"render": (_cmd_render, None, False, "")})
