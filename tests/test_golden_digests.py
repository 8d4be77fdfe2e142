import json

from make_golden_digests import GOLDEN, SEEDS, pipeline_digests, versions


def test_pipeline_outputs_match_golden_digests(tmp_path):
    # a fixed (config, seed) gives the same bytes from one change to the
    # next; a change that moves an output on purpose rewrites the digests
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert golden["versions"] == versions(), (
        f"digests made with {golden['versions']}, this is {versions()}; "
        f"rerun tests/make_golden_digests.py on the parent commit")
    moved = []
    for seed in SEEDS:
        want = golden["digests"][str(seed)]
        got = pipeline_digests(seed, tmp_path / str(seed))
        moved += [f"seed {seed}: {name}" for name in sorted(want.keys()
                                                            | got.keys())
                  if want.get(name) != got.get(name)]
    assert moved == []
