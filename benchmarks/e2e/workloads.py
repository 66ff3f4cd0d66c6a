"""The four workloads: who is disguised, in what order, beside what traffic.

Every random choice comes from ``random.Random`` instances seeded from the
``--seed`` argument; the program under test sees only the generated data,
job stream and application operations.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.apps.hotcrp import HotcrpPopulation, generate_hotcrp, hotcrp_gdpr
from repro.apps.lobsters import LobstersPopulation, generate_lobsters, lobsters_gdpr
from repro.errors import DeadlockError, LockTimeoutError
from repro.service.queue import DEAD, DONE, Job
from repro.spec.disguise import DisguiseSpec
from repro.storage.database import Database

from specs import lobsters_gdpr_rooted
from stack import Stack

__all__ = ["Measured", "Scale", "SCALES", "WORKLOADS", "Workload", "spread"]


@dataclass(frozen=True)
class Scale:
    """Sizes of everything that is not the measured duration."""

    name: str
    hotcrp: HotcrpPopulation
    lobsters: LobstersPopulation
    standing: int    # disguises outstanding before a HotCRP measurement starts
    reserved: int    # HotCRP users the application client acts as (never disguised)
    warmup: int      # cycles (HotCRP) or jobs per burst (Lobsters) run and discarded
    burst: int       # jobs per Lobsters backlog
    setups: int      # set-ups, and restarts, timed per run (medians reported)


SCALES = {
    # The paper's §6 HotCRP; Lobsters sized so one owner's job costs about
    # what a HotCRP one does.
    "full": Scale(
        "full",
        HotcrpPopulation(users=430, pc_members=30, papers=450, reviews=1400),
        LobstersPopulation(users=1200, stories=2400, comments=6000),
        standing=100, reserved=20, warmup=20, burst=50, setups=3,
    ),
    "smoke": Scale(
        "smoke",
        HotcrpPopulation(users=60, pc_members=6, papers=60, reviews=180),
        LobstersPopulation(users=120, stories=240, comments=600),
        standing=10, reserved=6, warmup=2, burst=8, setups=1,
    ),
}


@dataclass
class Measured:
    """Raw samples of one measured phase."""

    apply_ms: list[float] = field(default_factory=list)    # job latency, enqueue to finish
    reveal_ms: list[float] = field(default_factory=list)
    apply_rates: list[float] = field(default_factory=list)  # jobs/s, one per backlog
    reveal_rates: list[float] = field(default_factory=list)
    app_ms: list[float] = field(default_factory=list)      # op latency (loaded: from its due instant)
    round_ms: list[float] = field(default_factory=list)    # quiet rounds: mean latency per op
    late_ms: list[float] = field(default_factory=list)     # how late the generator sent
    cycles: int = 0          # users disguised and revealed again
    wall: float = 0.0        # seconds of disguise work (quiet client rounds excluded)
    jobs: int = 0            # jobs submitted
    jobs_acked: int = 0      # jobs that reached DONE
    jobs_dead: int = 0
    app_ops: int = 0
    app_retries: int = 0     # deadlock / lock-timeout victims retried
    app_failed: int = 0      # ops that exhausted retries or returned a wrong answer
    cuts: list[tuple] = field(default_factory=list)   # where each unit of work ended

    _SERIES = ("apply_ms", "reveal_ms", "apply_rates", "reveal_rates", "app_ms", "round_ms")

    def cut(self, seconds: float) -> None:
        """A unit of work ended *seconds* into the phase: note how far the
        cycle count and every series of samples had got."""
        self.cuts.append(
            (seconds, self.cycles, *(len(getattr(self, name)) for name in self._SERIES))
        )

    def windows(self, units: int) -> list["Measured"]:
        """The phase as consecutive windows of *units* units of work each,
        with their samples. A short last window is dropped; a phase shorter
        than one window is one window."""
        out = []
        last = (0.0, 0) + (0,) * len(self._SERIES)
        for edge in self.cuts[units - 1::units]:
            window = Measured(wall=edge[0] - last[0], cycles=edge[1] - last[1])
            for at, name in enumerate(self._SERIES, 2):
                setattr(window, name, getattr(self, name)[last[at]:edge[at]])
            out.append(window)
            last = edge
        return out or [self]


# -- choosing users ----------------------------------------------------------------------


def footprints(db: Database, user_table: str) -> dict[Any, int]:
    """Rows referencing each user, over every foreign key into *user_table*."""
    pk = db.table(user_table).schema.primary_key
    counts = {row[pk]: 0 for row in db.table(user_table).rows()}
    for schema in db.schema:
        columns = [fk.column for fk in schema.foreign_keys if fk.parent_table == user_table]
        if not columns:
            continue
        for row in db.table(schema.name).rows():
            for column in columns:
                if row[column] in counts:
                    counts[row[column]] += 1
    return counts


def spread(items: list[Any], weight: Callable[[Any], Any], rng: random.Random) -> list[Any]:
    """Order *items* so that every run of consecutive elements holds the
    same mix of light and heavy ones.

    A job's cost follows its user's footprint, and a timed run stops
    wherever the clock says. Sorting by weight and reading the ranks in
    bit-reversed order (a low-discrepancy sequence) makes any prefix — the
    standing population, one backlog, the users a 20-second run gets to — a
    balanced sample, so medians and tail percentiles do not depend on where
    the run stopped or on which seed drew the order. The seed breaks ties
    and rotates the ranks.
    """
    items = list(items)
    rng.shuffle(items)
    items.sort(key=weight)
    n = len(items)
    bits = max(1, (n - 1).bit_length())
    rotate = rng.randrange(n)
    ranks = (int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits))
    return [items[(rank + rotate) % n] for rank in ranks if rank < n]


# -- application clients -----------------------------------------------------------------


class _Client:
    """Runs application operations with the retry rule real clients use.

    The operation stream is a sequence of *rounds* of ``ROUND`` operations.
    Every round holds the exact mix, in a seed-shuffled order: how many of
    each kind a run has executed never depends on luck, so a percentile does
    not hop between a cheap kind and a dear one from seed to seed.
    """

    ROUND = 20

    def __init__(self) -> None:
        self.ops: Iterator[tuple[Callable[..., bool], tuple]] = iter(())
        self.inserted: list[Any] = []   # primary keys of rows it inserted (acked)

    def run_next(self, m: Measured) -> None:
        """One operation: up to three retries for lock victims, then give up."""
        op, args = next(self.ops)
        m.app_ops += 1
        for _attempt in range(4):
            try:
                if not op(*args):
                    m.app_failed += 1
                return
            except (DeadlockError, LockTimeoutError):
                m.app_retries += 1
        m.app_retries -= 1  # the fourth failure is a give-up, not a retry
        m.app_failed += 1


class HotcrpClient(_Client):
    """Five conference-site operations through the locked statement API.

    Deliberately not ``apps/hotcrp/workload.py``: its ``parse_select(...)
    .run(db)`` reads tables without the lock hook (see README finding 3).
    """

    # login 30%, paper list 10%, dashboard 30%, discussion 25%, submit 5%
    MIX = (("login", 6), ("paper_list", 2), ("dashboard", 6),
           ("discussion", 5), ("submit_review", 1))
    _REVIEW_ID_BASE = 10_000_000  # far above anything the generator allocates

    def __init__(self, db: Any, reserved: list[Any], rng: random.Random) -> None:
        super().__init__()
        self.db = db
        contacts = {row["contactId"]: dict(row) for row in db.table("ContactInfo").rows()}
        self.accounts = [contacts[uid] for uid in reserved]
        self.reviewers = [uid for uid in reserved if contacts[uid]["roles"]]
        # Reviews are submitted by the reserved accounts outside the committee
        # (external reviewers). Were they the two committee members whose
        # dashboards the client loads, every insert would lengthen a
        # dashboard, and an operation's cost would depend on how many rounds
        # a run had got through.
        self.externals = [uid for uid in reserved if not contacts[uid]["roles"]]
        self.papers = sorted(row["paperId"] for row in db.table("Paper").rows())
        self._review_ids = itertools.count(self._REVIEW_ID_BASE)
        self.ops = self._rounds(rng)

    def _rounds(self, rng: random.Random):
        kinds = [kind for kind, count in self.MIX for _ in range(count)]
        assert len(kinds) == self.ROUND
        while True:
            rng.shuffle(kinds)
            for kind in list(kinds):
                yield self._draw(rng, kind)

    def _draw(self, rng: random.Random, kind: str):
        if kind == "login":
            return self.login, (rng.choice(self.accounts),)
        if kind == "paper_list":
            return self.paper_list, ()
        if kind == "dashboard":
            return self.dashboard, (rng.choice(self.reviewers),)
        if kind == "discussion":
            return self.discussion, (rng.choice(self.papers),)
        return self.submit_review, (rng.choice(self.externals), rng.choice(self.papers))

    def login(self, account: dict) -> bool:
        rows = self.db.select(
            "ContactInfo",
            "email = $E AND password = $P AND disabled = FALSE",
            {"E": account["email"], "P": account["password"]},
        )
        return len(rows) == 1 and rows[0]["contactId"] == account["contactId"]

    def paper_list(self, limit: int = 20) -> bool:
        papers = self.db.select("Paper", "timeSubmitted IS NOT NULL")
        papers.sort(key=lambda p: (-p["timeSubmitted"], p["paperId"]))
        for paper in papers[:limit]:
            self.db.count("PaperReview", "paperId = $P", {"P": paper["paperId"]})
        return len(papers) == len(self.papers)

    def dashboard(self, uid: Any) -> bool:
        reviews = self.db.select("PaperReview", "contactId = $U", {"U": uid})
        for review in reviews:
            if self.db.get("Paper", review["paperId"]) is None:
                return False
        self.db.select("PaperReviewPreference", "contactId = $U", {"U": uid})
        return bool(reviews)  # reserved reviewers are never disguised

    def discussion(self, paper_id: Any) -> bool:
        for comment in self.db.select("PaperComment", "paperId = $P", {"P": paper_id}):
            self.db.get("ContactInfo", comment["contactId"])
        return True

    def submit_review(self, uid: Any, paper_id: Any) -> bool:
        review_id = next(self._review_ids)
        self.db.insert("PaperReview", {
            "reviewId": review_id, "paperId": paper_id, "contactId": uid,
            "reviewType": 1, "reviewSubmitted": 1.0, "overAllMerit": 3,
            "reviewText": f"Benchmark review {review_id}.",
        })
        self.inserted.append(review_id)
        return True


class LobstersClient(_Client):
    """Owner-anchored reads: a user's comments, then the same user's stories."""

    ROUND = 200   # these reads take ~40 us; a round should outlast scheduler jitter

    def __init__(self, db: Any, uids: list[Any], rng: random.Random) -> None:
        super().__init__()
        self.db = db
        self.ops = self._reads(uids, rng)

    def _reads(self, uids: list[Any], rng: random.Random):
        while True:
            uid = rng.choice(uids)
            yield self.owned, ("comments", uid)
            yield self.owned, ("stories", uid)

    def owned(self, table: str, uid: Any) -> bool:
        rows = self.db.select(table, "user_id = $U", {"U": uid})
        return all(row["user_id"] == uid for row in rows)


# -- workloads ---------------------------------------------------------------------------


def _latency_ms(job: Job) -> float:
    return (job.finished_at - job.enqueued_at) * 1e3


class Workload:
    """Shared plan: a seed-ordered stream of users, disguised through the service."""

    name = ""
    user_table = ""
    workers = 1
    shards = 0
    inserts_into = ""   # table the application client inserts into, if any
    quiet_rounds = 0    # client rounds between units (the harness zeroes it when tracing)
    window = 1          # units of work per window of the report (README, "Noise")
    pooled = ()         # metrics taken over the whole phase, not per window

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale
        self.users: Iterator[Any] = iter(())
        self.standing: list[Any] = []   # users whose disguise stays applied
        self.client: _Client = _Client()

    def spec(self) -> DisguiseSpec:
        raise NotImplementedError

    def generate(self) -> Database:
        raise NotImplementedError

    def prepare(self, stack: Stack) -> None:
        """The rest of set-up: decide who is disguised in what order (read
        off the still-undisguised database), and apply any standing disguises."""
        raise NotImplementedError

    def warm_up(self, stack: Stack) -> None:
        raise NotImplementedError

    def _unit(self, stack: Stack, m: Measured) -> None:
        """One unit of disguise work: a cycle, or a backlog."""
        raise NotImplementedError

    def _quiet_round(self, m: Measured) -> None:
        """One round of the client with no job in flight: every operation's
        latency, for the tail, and the round's mean latency per operation,
        for the typical cost — the kinds differ twentyfold, so the median
        single operation is whichever kind the 50% mark falls in, while a
        round is always the same mix."""
        marks = [time.perf_counter()]
        for _ in range(self.client.ROUND):
            self.client.run_next(m)
            marks.append(time.perf_counter())
        m.app_ms.extend((end - start) * 1e3 for start, end in zip(marks, marks[1:]))
        m.round_ms.append((marks[-1] - marks[0]) * 1e3 / self.client.ROUND)

    def measure(self, stack: Stack, seconds: float, m: Measured, max_units: int | None) -> None:
        """Units of disguise work until *seconds* of it have run. Between
        units, with no job in flight, the client runs ``quiet_rounds`` rounds:
        the no-wait floor of the application's latency, sampled across the
        whole phase rather than in one short window after it (the sandbox's
        speed drifts on that scale)."""
        units = 0
        spent = 0.0
        while spent < seconds and (max_units is None or units < max_units):
            started = time.perf_counter()
            self._unit(stack, m)
            spent += time.perf_counter() - started
            units += 1
            for _ in range(self.quiet_rounds):
                self._quiet_round(m)
            m.cut(spent)
        m.wall += spent


class HotcrpCycle(Workload):
    name = "hotcrp_cycle"
    user_table = "ContactInfo"
    inserts_into = "PaperReview"
    quiet_rounds = 1
    window = 24
    # A window holds one or two committee members, whose jobs are the tail.
    pooled = ("apply_p95_ms", "reveal_p95_ms")

    def spec(self) -> DisguiseSpec:
        return hotcrp_gdpr()

    def generate(self) -> Database:
        return generate_hotcrp(population=self.scale.hotcrp, seed=self.seed)

    def prepare(self, stack: Stack) -> None:
        rng = random.Random(self.seed)
        roles = {row["contactId"]: row["roles"] for row in stack.db.table("ContactInfo").rows()}
        pc = [uid for uid in stack.uids if roles[uid]]
        others = [uid for uid in stack.uids if not roles[uid]]
        # The application client acts as these; two of them review.
        reserved = rng.sample(pc, 2) + rng.sample(others, self.scale.reserved - 2)
        weights = footprints(stack.db, self.user_table)
        order = spread(
            [uid for uid in stack.uids if uid not in set(reserved)],
            weights.__getitem__, rng,
        )
        self.standing = order[: self.scale.standing]
        self.users = itertools.cycle(order[self.scale.standing:])
        self.client = HotcrpClient(stack.db, reserved, random.Random(self.seed + 1))
        # The standing population: what makes a reveal pay what production pays.
        for uid in self.standing:
            stack.service.submit_apply(stack.spec.name, uid=uid)
        stack.service.drain()

    def _cycle(self, stack: Stack, uid: Any, m: Measured) -> None:
        """One user's disguise applied, then revealed, one job in flight."""
        service = stack.service
        applied = service.submit_apply(stack.spec.name, uid=uid)
        if self._drained(stack, applied, m.apply_ms, m):
            revealed = service.submit_reveal(applied.result["did"])
            if self._drained(stack, revealed, m.reveal_ms, m):
                m.cycles += 1

    @staticmethod
    def _drained(stack: Stack, job: Job, samples: list[float], m: Measured) -> bool:
        stack.service.drain()
        m.jobs += 1
        if job.state != DONE:
            m.jobs_dead += 1
            return False
        m.jobs_acked += 1
        samples.append(_latency_ms(job))
        return True

    def warm_up(self, stack: Stack) -> None:
        scratch = Measured()
        for _ in range(self.scale.warmup):
            self._cycle(stack, next(self.users), scratch)
            self._quiet_round(scratch)

    def _unit(self, stack: Stack, m: Measured) -> None:
        self._cycle(stack, next(self.users), m)


class HotcrpMixed(HotcrpCycle):
    """``hotcrp_cycle`` beside an open-loop application client at 100 ops/s."""

    name = "hotcrp_mixed"
    rate = 100.0
    quiet_rounds = 0   # the client runs during the disguises instead

    def measure(self, stack: Stack, seconds: float, m: Measured, max_units: int | None) -> None:
        service = stack.service
        job: Job | None = None
        revealing = False

        def finished(job: Job) -> bool:
            if job.state not in (DONE, DEAD):
                return False
            # complete()/fail() publish state, result and finished_at under
            # the queue lock; taking it once orders our reads after theirs.
            stack.queue.get(job.job_id)
            return True

        def pump(into: Measured, more_users: bool) -> bool:
            """Advance the closed disguise loop: when the job in flight is
            done, record it and submit the next. False once nothing is in flight."""
            nonlocal job, revealing
            if job is not None:
                if not finished(job):
                    return True
                into.jobs += 1
                if job.state == DONE:
                    into.jobs_acked += 1
                    (into.reveal_ms if revealing else into.apply_ms).append(_latency_ms(job))
                    if revealing:
                        into.cycles += 1
                        into.cut(time.perf_counter() - started)
                    else:
                        revealing = True
                        job = service.submit_reveal(job.result["did"])
                        return True
                else:
                    into.jobs_dead += 1
                job, revealing = None, False
            if more_users:
                job = service.submit_apply(stack.spec.name, uid=next(self.users))
            return job is not None

        started = time.perf_counter()
        first = m.cycles
        sent = 0
        while time.perf_counter() - started < seconds and (
            max_units is None or m.cycles - first < max_units
        ):
            due = started + sent / self.rate
            while True:
                pump(m, True)
                wait = due - time.perf_counter()
                if wait <= 0:
                    break
                time.sleep(min(wait, 0.001))
            m.late_ms.append((time.perf_counter() - due) * 1e3)
            self.client.run_next(m)
            m.app_ms.append((time.perf_counter() - due) * 1e3)
            sent += 1
        m.wall += time.perf_counter() - started
        # Finish the cycle in flight so the database is whole for the checks.
        # It ran partly unloaded: its jobs count, its latencies are dropped.
        tail = Measured()
        while pump(tail, False):
            service.drain()
        m.jobs += tail.jobs
        m.jobs_acked += tail.jobs_acked
        m.jobs_dead += tail.jobs_dead


class LobstersDrain(Workload):
    name = "lobsters_drain"
    user_table = "users"
    workers = 2
    quiet_rounds = 20

    def spec(self) -> DisguiseSpec:
        return lobsters_gdpr()

    def generate(self) -> Database:
        return generate_lobsters(population=self.scale.lobsters, seed=self.seed)

    def prepare(self, stack: Stack) -> None:
        weights = footprints(stack.db, self.user_table)
        order = spread(stack.uids, weights.__getitem__, random.Random(self.seed))
        self.users = itertools.cycle(order)
        self.client = LobstersClient(stack.db, stack.uids, random.Random(self.seed + 1))

    def _burst(self, stack: Stack, size: int, m: Measured) -> None:
        """A backlog of *size* applies drained, then their reveals, newest
        first (oldest-first reveals dead-letter on RESTRICT: README finding 2)."""
        service = stack.service
        uids = [next(self.users) for _ in range(size)]
        applies = [service.submit_apply(stack.spec.name, uid=uid) for uid in uids]
        service.drain()
        done = self._account(applies, m.apply_ms, m.apply_rates, m)
        reveals = [service.submit_reveal(job.result["did"]) for job in reversed(done)]
        service.drain()
        m.cycles += len(self._account(reveals, m.reveal_ms, m.reveal_rates, m))

    @staticmethod
    def _account(jobs: list[Job], latencies: list[float], rates: list[float],
                 m: Measured) -> list[Job]:
        """Record one drained backlog; its rate runs from the first enqueue
        to the last finish."""
        done = [job for job in jobs if job.state == DONE]
        m.jobs += len(jobs)
        m.jobs_acked += len(done)
        m.jobs_dead += len(jobs) - len(done)
        latencies.extend(_latency_ms(job) for job in done)
        if done:
            span = max(job.finished_at for job in done) - min(job.enqueued_at for job in jobs)
            rates.append(len(done) / span)
        return done

    def warm_up(self, stack: Stack) -> None:
        scratch = Measured()
        self._burst(stack, self.scale.warmup, scratch)
        self._quiet_round(scratch)

    def _unit(self, stack: Stack, m: Measured) -> None:
        self._burst(stack, self.scale.burst, m)


class LobstersSharded(LobstersDrain):
    name = "lobsters_sharded"
    shards = 2

    def spec(self) -> DisguiseSpec:
        return lobsters_gdpr_rooted()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (HotcrpCycle, LobstersDrain, HotcrpMixed, LobstersSharded)
}
