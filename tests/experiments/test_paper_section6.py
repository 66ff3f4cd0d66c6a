"""The paper's evaluation (§6) as tests: E1 Figure 4, E2 linearity, E3/E4
composition, at the paper's database size (430 users, 30 PC members, 450
papers, 1400 reviews).

The substrate is a pure-Python engine, not the authors' Rust + MySQL
testbed, so absolute numbers differ. What is asserted is what repeats
exactly from run to run: object-type counts, spec sizes, and the storage
operations each disguise performs (``report.db_stats.total``, the paper's
"number of queries"). Milliseconds are printed beside the paper's for the
record — ``python -m pytest tests/experiments -s`` shows the tables — and
never asserted; timing belongs to ``benchmarks/e2e``.
"""

from __future__ import annotations

import pytest

from repro import Disguiser
from repro.apps import hotcrp, lobsters
from repro.apps.hotcrp import HotcrpPopulation, all_disguises, generate_hotcrp

PAPER_POPULATION = HotcrpPopulation(users=430, pc_members=30, papers=450, reviews=1400)


def paper_conference(population: HotcrpPopulation = PAPER_POPULATION) -> Disguiser:
    """The §6 testbed (or a resized one) with the three HotCRP disguises."""
    engine = Disguiser(generate_hotcrp(population=population, seed=42), seed=1)
    for spec in all_disguises():
        engine.register(spec)
    return engine


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    widths = [
        max(len(str(cell)) for cell in column) for column in zip(headers, *rows)
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==\n{line}\n{'-' * len(line)}")
    for row in rows:
        print("  ".join(str(cell).ljust(w) for cell, w in zip(row, widths)))


# -- E1: Figure 4, disguise specifications vs relational schemas -------------------

# name -> (#object types, schema LoC, disguise LoC) as printed in the paper.
FIGURE_4 = {
    "Lobsters-GDPR": (19, 318, 100),
    "HotCRP-GDPR": (25, 352, 142),
    "HotCRP-GDPR+": (25, 352, 255),
    "HotCRP-ConfAnon": (25, 352, 232),
}


def test_e1_figure4_spec_complexity():
    ours = {}
    for app, schema in (
        (lobsters, lobsters.lobsters_schema()),
        (hotcrp, hotcrp.hotcrp_schema()),
    ):
        for spec in app.all_disguises():
            ours[spec.name] = (schema.object_type_count(), app.schema_loc(), spec.loc())
    print_table(
        "Figure 4: spec complexity vs schema complexity",
        ["Disguise", "#Objects", "Schema LoC", "Disguise LoC", "ratio"],
        [
            [name, objects, f"{schema_loc} (paper {FIGURE_4[name][1]})",
             f"{spec_loc} (paper {FIGURE_4[name][2]})", f"{spec_loc / schema_loc:.2f}"]
            for name, (objects, schema_loc, spec_loc) in ours.items()
        ],
    )
    assert set(ours) == set(FIGURE_4)
    for name, (objects, schema_loc, spec_loc) in ours.items():
        # Object-type counts match the paper exactly.
        assert objects == FIGURE_4[name][0]
        # "Similar complexity to a relational schema": no larger than the
        # schema, same order of magnitude (paper ratios are 0.31-0.72).
        assert schema_loc * 0.05 <= spec_loc <= schema_loc
    # The nuanced policies are at least as rich as plain GDPR (paper: 255
    # and 232 vs 142 lines).
    gdpr = ours["HotCRP-GDPR"][2]
    assert ours["HotCRP-GDPR+"][2] >= gdpr * 0.9
    assert ours["HotCRP-ConfAnon"][2] >= gdpr * 0.9


# -- E2: "queries grow linearly with the number of objects" -----------------------


def linear_fit(points: list[tuple[int, int]]) -> tuple[float, float, float]:
    """Least-squares (slope, intercept, R^2) of statements over objects."""
    n = len(points)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / sum(
        (x - mean_x) ** 2 for x, _ in points
    )
    intercept = mean_y - slope * mean_x
    residual = sum((y - (slope * x + intercept)) ** 2 for x, y in points)
    total = sum((y - mean_y) ** 2 for _, y in points)
    return slope, intercept, 1.0 - residual / total


def gdpr_plus_at(review_scale: float):
    """One PC member's GDPR+ with the review load per member scaled: the PC
    is held constant, so the disguise touches proportionally more objects."""
    engine = paper_conference(
        HotcrpPopulation(users=430, pc_members=30, papers=450,
                         reviews=round(1400 * review_scale))
    )
    return engine.apply("HotCRP-GDPR+", uid=2)


def confanon_at(scale: float):
    """Whole-conference ConfAnon: objects = (almost) the whole database."""
    return paper_conference(HotcrpPopulation.at_scale(scale)).apply("HotCRP-ConfAnon")


@pytest.mark.parametrize(
    "title, measure, scales",
    [
        ("E2a: HotCRP-GDPR+ statements vs per-member footprint",
         gdpr_plus_at, (0.5, 1.0, 2.0, 4.0)),
        ("E2b: HotCRP-ConfAnon statements vs conference size",
         confanon_at, (0.25, 0.5, 1.0)),
    ],
    ids=["gdpr_plus", "confanon"],
)
def test_e2_statements_linear_in_objects(title, measure, scales):
    reports = [measure(scale) for scale in scales]
    points = [(report.rows_touched, report.db_stats.total) for report in reports]
    slope, intercept, r_squared = linear_fit(points)
    print_table(
        title,
        ["scale", "objects", "statements", "stmt/object", "latency"],
        [
            [f"x{scale}", objects, statements, f"{statements / objects:.1f}",
             f"{report.duration_s * 1e3:.1f} ms"]
            for scale, report, (objects, statements) in zip(scales, reports, points)
        ],
    )
    print(f"fit: statements = {slope:.2f} * objects + {intercept:.1f} "
          f"(R^2 = {r_squared:.4f})")
    assert points[-1][0] > 2 * points[0][0], "the series must span a real range"
    assert r_squared > 0.99, "statements are not linear in objects"
    assert slope > 0
    assert abs(intercept) < points[-1][1] * 0.5


# -- E3/E4: composing GDPR+ with ConfAnon ----------------------------------------

# The paper's measurements (Rust + MySQL), milliseconds.
PAPER_MS = {"independent": 135, "composed": 452, "confanon": 7000, "optimized": 118}


@pytest.fixture(scope="module")
def composition():
    """The four reports of the composition experiment, one fresh testbed
    per scenario."""
    engine = paper_conference()
    engine.apply("HotCRP-GDPR+", uid=5)
    independent = engine.apply("HotCRP-GDPR+", uid=6)

    engine = paper_conference()
    confanon = engine.apply("HotCRP-ConfAnon")
    composed = engine.apply("HotCRP-GDPR+", uid=6, optimize=False)

    engine = paper_conference()
    engine.apply("HotCRP-ConfAnon")
    optimized = engine.apply("HotCRP-GDPR+", uid=6, optimize=True)

    reports = {
        "independent": independent,
        "composed": composed,
        "confanon": confanon,
        "optimized": optimized,
    }
    print_table(
        "E3: GDPR+ composition (430 users / 30 PC / 450 papers / 1400 reviews)",
        ["case", "ms (ours)", "ms (paper)", "statements", "vault ops",
         "recorrelated", "skipped"],
        [
            [name, f"{report.duration_s * 1e3:.1f}", PAPER_MS[name],
             report.db_stats.total, report.vault_stats.total,
             report.recorrelated, report.redundant_skipped]
            for name, report in reports.items()
        ],
    )
    return reports


def test_e3_composition_mechanism(composition):
    # GDPR+ over ConfAnon's output re-correlates through the vault (reveal
    # functions); the optimization skips what ConfAnon already did; two
    # independent GDPR+ applications need neither.
    assert composition["composed"].recorrelated > 0
    assert composition["composed"].redundant_skipped == 0
    assert composition["optimized"].redundant_skipped > 0
    assert composition["independent"].recorrelated == 0
    assert composition["independent"].redundant_skipped == 0


def test_e4_composition_cost_ordering(composition):
    cost = {name: report.db_stats.total for name, report in composition.items()}
    ms = {name: report.duration_s * 1e3 for name, report in composition.items()}
    print_table(
        "E4: shape check (who wins, by what factor)",
        ["ratio", "statements", "ms (ours)", "ms (paper)"],
        [
            [f"{over} / {under}", f"{cost[over] / cost[under]:.2f}x",
             f"{ms[over] / ms[under]:.2f}x", f"{PAPER_MS[over] / PAPER_MS[under]:.2f}x"]
            for over, under in [
                ("confanon", "independent"),
                ("composed", "independent"),
                ("optimized", "independent"),
                ("optimized", "composed"),
            ]
        ],
    )
    # Paper: 7000 ms >> 452 ms > 135 ms >= 118 ms.
    assert cost["confanon"] > cost["composed"] > cost["independent"]
    assert cost["optimized"] < cost["composed"]
    # The optimization brings the composed cost back to about an
    # independent application's.
    assert cost["optimized"] <= cost["independent"] * 1.5
    # ConfAnon is an order of magnitude heavier than one user's GDPR+
    # (paper: ~52x); composing costs more than an independent application
    # but far less than redoing ConfAnon.
    assert cost["confanon"] > 10 * cost["independent"]
    assert cost["composed"] > 1.2 * cost["independent"]
    assert cost["composed"] < cost["confanon"] / 2
