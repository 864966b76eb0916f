"""Scenario: a long-running OPIM session that survives restarts.

Online processing means a session may span hours or days of wall-clock
time with the analyst checking in occasionally.  This example shows the
operational side the library adds around the paper's algorithm:

1. an :class:`~repro.core.session.OPIMSession` whose queries share one
   joint failure budget (the delta / 2^i schedule from Section 4's
   "Discussions"), so every guarantee ever reported holds
   simultaneously;
2. a :class:`~repro.serve.engine.SeedQueryEngine` whose RR sketch is
   checkpointed to an index directory and warm-started in a "new
   process", continuing the exact same randomness stream.

Run:  python examples/resumable_session.py
"""

import tempfile
from pathlib import Path

from repro import load_dataset
from repro.core.session import OPIMSession
from repro.serve import SeedQueryEngine


def joint_guarantee_session() -> None:
    graph = load_dataset("livejournal-sim", scale=0.2)
    session = OPIMSession(graph, "LT", k=15, delta=0.05, seed=99)
    print(f"Session on {graph.name} (n={graph.n}); joint delta = {session.delta}")

    for round_no in range(1, 5):
        session.extend(3000)
        budget = session.next_query_delta()
        snap = session.query()
        print(
            f"  query #{round_no}: alpha = {snap.alpha:.4f} "
            f"(this query's failure budget: {budget:.4g})"
        )
    print(
        "  all four guarantees above hold *simultaneously* w.p. >= "
        f"{1 - session.delta:.3f}\n"
    )


def checkpoint_and_resume() -> None:
    graph = load_dataset("pokec-sim", scale=0.3)
    with tempfile.TemporaryDirectory(prefix="opim-index-") as workdir:
        resume_from(graph, Path(workdir))


def resume_from(graph, workdir: Path) -> None:
    print(f"Process A: serves queries on {graph.name}, indexed at {workdir}")
    with SeedQueryEngine(graph, "IC", seed=7, index_dir=workdir) as process_a:
        before = process_a.answer(10, alpha_target=0.5)
        process_a.checkpoint()
    print(f"  alpha at checkpoint: {before['alpha']:.4f} "
          f"({before['num_rr_sets']} RR sets)")

    # The stream is the same at every worker count, so the restart may
    # run its sampling pool with more workers than process A did.
    print("Process B: warm-starts from the index with two workers")
    with SeedQueryEngine(
        graph, "IC", seed=7, index_dir=workdir, workers=2
    ) as process_b:
        assert process_b.loaded_from_index
        process_b.extend(8000)
        after = process_b.answer(10, alpha_target=0.5)
    print(f"  alpha after resuming: {after['alpha']:.4f} "
          f"({after['num_rr_sets']} RR sets)")

    # Evidence the stream really continued: one uninterrupted engine
    # issuing the same calls produces the identical future.
    with SeedQueryEngine(graph, "IC", seed=7) as twin:
        twin.answer(10, alpha_target=0.5)
        twin.extend(8000)
        expected = twin.answer(10, alpha_target=0.5)
    assert expected["seeds"] == after["seeds"]
    assert expected["alpha"] == after["alpha"]
    print("  verified: the restarted engine is bit-identical to the original")


if __name__ == "__main__":
    joint_guarantee_session()
    checkpoint_and_resume()
