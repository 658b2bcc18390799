from proxnet import data, objectives


def test_objectives_re_exports_only_what_the_benchmark_imports() -> None:
    # bench/workloads.py imports these three from proxnet.objectives, and
    # tier-1 never runs it; ROADMAP item 1 moves that import to proxnet.data.
    benchmark = {"A9A_GROUP_SIZES", "serialize_libsvm", "synthetic_classification"}
    for name in benchmark:
        assert getattr(objectives, name) is getattr(data, name)
    shared = {
        name for name in set(vars(objectives)) & set(vars(data))
        if not name.startswith("__")
    }
    assert shared == benchmark | {"annotations", "np"}
