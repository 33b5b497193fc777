"""The five benchmark workloads: seeded inputs, one timed pass each, and
the checks on every output.

A workload object is built once per process (that is the set-up the
benchmark times).  `run_pass(rec)` makes one pass through the workload,
sending every call into qflab through the recorder `rec`, which times it;
it returns a JSON-able summary of the pass's outputs, which must be the
same for every pass of a run.  `check_pass(outputs)` returns the list of
problems found in one pass (empty when the pass is correct).

Operations are the unit of latency: one form verdict (table1-600), one
full check inside the search (search-121), one point query (nonsplit),
one cache lookup (cache) and one quotient-coefficient lattice sum (eta).
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
from array import array
from pathlib import Path

import qflab
import qflab.cache
import qflab.qseries
import qflab.regularity
import qflab.search
import qflab.theta
import qflab.verify
from qflab import (CLASSIFICATION_TABLE, QuadForm, SearchConfig,
                   all_bundled_forms, classification_passing)

REFS_PATH = Path(__file__).with_name("refs.json")

# sizes; README.md says why each was chosen
TABLE1_BOUND = 600
SEARCH_CMAX, SEARCH_BOUND = 121, 50
NONSPLIT_BASES = ("1,2,3,10", "1,2,3,10/mate", "1,1,3,5")
NONSPLIT_CONJUGATES = 2          # per base form
NONSPLIT_PREC = 1000
NONSPLIT_QUERY_MAX = 20
CACHE_TABLE1_BOUND = 200
CACHE_THETA_PREC = 20000
ETA_PROPS_NMAX = 500
ETA_LEMMA54_PREC = 6000


def digest(coeffs) -> str:
    """sha256 of an integer sequence (as int64 bytes when every value
    fits, else as decimal text)."""
    try:
        data = array("q", coeffs).tobytes()
    except OverflowError:
        data = ",".join(map(str, coeffs)).encode()
    return hashlib.sha256(data).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text())


def unitriangular_conjugate(form: QuadForm, rng: random.Random,
                            span: int) -> QuadForm:
    """U^T H U for a random unit upper-triangular U with entries in
    [-span, span].  Such a U keeps the flag span(b_0..b_i) of the basis,
    so the exact LDL pivots, and with them the volume the enumerator
    sweeps, are those of the input: only the skew of the basis is random,
    which keeps the cost of a conjugate nearly independent of the seed."""
    k = form.rank
    u = [[1 if r == c else (rng.randint(-span, span) if r < c else 0)
          for c in range(k)] for r in range(k)]
    h = form.hessian
    hu = [[sum(h[r][t] * u[t][c] for t in range(k)) for c in range(k)]
          for r in range(k)]
    return QuadForm(tuple(tuple(sum(u[t][r] * hu[t][c] for t in range(k))
                                for c in range(k)) for r in range(k)))


def nonsplit_conjugate(form: QuadForm, rng: random.Random) -> QuadForm:
    """A seeded conjugate whose stored basis has one orthogonal block, so
    qflab cannot split it and must enumerate it whole."""
    while True:
        conj = unitriangular_conjugate(form, rng, 2)
        if len(conj.orthogonal_blocks()) == 1:
            return conj


class Workload:
    name = ""
    ops_per_pass = 1
    calibration = "interpreter"    # the calibrate.KERNELS entry that tracks it
    # passes a run makes at least; an operation's latency is its median
    # over these passes, less the first warm_up_passes
    min_passes = 3
    warm_up_passes = 0

    def hooks(self, rec) -> list:
        """(module, attribute, wrapper factory) for operations that happen
        inside library calls; the worker installs them for the run."""
        return []

    def inputs(self) -> dict:
        return {}

    def check_pass(self, outputs) -> list[str]:
        return []


class Table1(Workload):
    name = "table1-600"
    calibration = "memory"
    min_passes = 2       # a pass takes about half of a 20 s run

    def __init__(self, seed: int, refs: dict):
        entries = list(CLASSIFICATION_TABLE)
        random.Random(seed).shuffle(entries)
        self.entries = entries
        self.expected = refs["table1-600"]
        self.ops_per_pass = len(entries)

    def inputs(self) -> dict:
        return {"order": [",".join(map(str, e.diagonal)) for e in self.entries]}

    def run_pass(self, rec):
        rows = []
        for entry in self.entries:
            key = ",".join(map(str, entry.diagonal))
            report = rec.op(qflab.regularity.is_strongly_s_regular,
                            entry.form, TABLE1_BOUND,
                            check=lambda r, key=key: r.to_dict() == self.expected[key])
            rows.append(None if report is None else report.to_dict())
        return {"rows": rows}


class Search(Workload):
    name = "search-121"
    min_passes = 2       # a pass takes over a third of a 20 s run

    def __init__(self, seed: int, refs: dict):
        ref = refs["search-121"]
        self.config = SearchConfig(SEARCH_CMAX, SEARCH_BOUND)
        self.expected = dict(ref, survivors=sorted(
            list(e.diagonal) for e in classification_passing()))
        self.passing = {tuple(d) for d in ref["passing"]}
        self.verdicts: list = []
        self.ops_per_pass = ref["examined"] - ref["filtered"]

    def hooks(self, rec):
        def factory(fn):
            def full_check(form, *args, **kwargs):
                report = rec.hooked_op(fn, form, *args, **kwargs)
                diag = form.diag_q
                self.verdicts.append((diag, report.passed))
                rec.check_last(lambda: report.passed == (diag in self.passing))
                return report
            return full_check
        return [(qflab.search, "is_strongly_s_regular", factory)]

    def run_pass(self, rec):
        self.verdicts = []
        result = rec.call(qflab.search.search_diagonal, self.config)
        return {"survivors": [list(d) for d in result.survivors],
                "examined": result.examined,
                "filtered": result.filtered_out,
                "verdicts": text_digest(json.dumps(self.verdicts))}

    def check_pass(self, outputs):
        problems = []
        for key in ("examined", "filtered", "survivors"):
            if outputs[key] != self.expected[key]:
                problems.append(f"{key}: {outputs[key]} != {self.expected[key]}")
        return problems


class NonSplit(Workload):
    name = "nonsplit"

    def __init__(self, seed: int, refs: dict):
        rng = random.Random(seed)
        bases = all_bundled_forms()
        self.forms = [(name, nonsplit_conjugate(bases[name], rng))
                      for name in NONSPLIT_BASES
                      for _ in range(NONSPLIT_CONJUGATES)]
        self.expected = {name: refs["theta"][name][str(NONSPLIT_PREC)]
                         for name in NONSPLIT_BASES}
        self.ops_per_pass = len(self.forms) * NONSPLIT_QUERY_MAX

    def inputs(self) -> dict:
        return {"conjugates": [{"base": name, "hessian": [list(r) for r in f.hessian]}
                               for name, f in self.forms]}

    def run_pass(self, rec):
        out = []
        for name, form in self.forms:
            dense = rec.call(qflab.theta.theta_coeffs, form, NONSPLIT_PREC)
            query = rec.call(qflab.theta.RepQuery, form,
                             NONSPLIT_QUERY_MAX * NONSPLIT_QUERY_MAX)
            values = []
            for n in range(1, NONSPLIT_QUERY_MAX + 1):
                m = n * n
                values.append(rec.op(query.count, m,
                                     check=lambda v, m=m: v == dense[m]))
            with rec.untimed():
                out.append({"base": name, "theta": digest(dense),
                            "queries": values})
        return {"forms": out}

    def check_pass(self, outputs):
        return [f"theta of the {f['base']} conjugate differs from its base form"
                for f in outputs["forms"] if f["theta"] != self.expected[f["base"]]]


class Cache(Workload):
    name = "cache"

    def __init__(self, seed: int, refs: dict, scratch: Path):
        rng = random.Random(seed)
        self.scratch = scratch
        self.bases = all_bundled_forms()
        self.conjugates = {}
        for name, form in self.bases.items():
            while True:
                conj = unitriangular_conjugate(form, rng, 1)
                if conj.hessian != form.hessian:
                    break
            self.conjugates[name] = conj
        self.expected_report = refs["cache"]["table1"]
        # reference theta digest by the hessian the cache is asked for
        self.expected = {}
        for name, form in self.bases.items():
            ref = refs["theta"][name][str(CACHE_THETA_PREC)]
            self.expected[(form.hessian, CACHE_THETA_PREC)] = ref
            self.expected[(self.conjugates[name].hessian, CACHE_THETA_PREC)] = ref
        for a, ref in refs["cache"]["unary"].items():
            prec = CACHE_TABLE1_BOUND * CACHE_TABLE1_BOUND
            self.expected[(QuadForm.diagonal((int(a),)).hessian, prec)] = ref
        # cold and warm: four unary blocks per table form, then the bundled forms
        self.ops_per_pass = 2 * (4 * len(CLASSIFICATION_TABLE) + len(self.bases))

    def inputs(self) -> dict:
        return {"conjugates": {name: [list(r) for r in f.hessian]
                               for name, f in self.conjugates.items()}}

    def hooks(self, rec):
        def factory(fn):
            def lookup(form, prec, *args, **kwargs):
                coeffs = rec.hooked_op(fn, form, prec, *args, **kwargs)
                rec.check_last(lambda: digest(coeffs)
                               == self.expected.get((form.hessian, prec)))
                return coeffs
            return lookup
        return [(qflab.cache, "cache_theta", factory)]

    def _one(self, rec, forms, directory):
        report = rec.call(qflab.verify.run_table1, CACHE_TABLE1_BOUND,
                          cache=qflab.cache.make_cache(directory))
        thetas = {}
        for name, form in forms.items():
            coeffs = rec.call(qflab.cache.cache_theta, form, CACHE_THETA_PREC,
                              directory)
            with rec.untimed():
                thetas[name] = digest(coeffs)
        with rec.untimed():
            return {"table1": text_digest(report.to_json()), "thetas": thetas}

    def run_pass(self, rec):
        directory = Path(tempfile.mkdtemp(prefix="cache-", dir=self.scratch))
        try:
            rec.phase = "cold"
            cold = self._one(rec, self.bases, directory)
            rec.phase = "warm"
            warm = self._one(rec, self.conjugates, directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return {"cold": cold, "warm": warm}

    def check_pass(self, outputs):
        problems = []
        if outputs["warm"] != outputs["cold"]:
            problems.append("warm results differ from cold results")
        for phase in ("cold", "warm"):
            res = outputs[phase]
            if res["table1"] != self.expected_report:
                problems.append(f"{phase} table1 report differs from the uncached one")
            for name, got in res["thetas"].items():
                if got != self.expected[(self.bases[name].hessian, CACHE_THETA_PREC)]:
                    problems.append(f"{phase} theta of {name} differs from the uncached one")
        return problems


class Eta(Workload):
    name = "eta"
    # the first pass fills qseries' lattice-sum tables
    min_passes = 4
    warm_up_passes = 1

    def __init__(self, seed: int, refs: dict):
        self.expected = refs["eta"]
        self.expected_powers = {tuple(call[:3]): call[3]
                                for call in self.expected["eta_expansion"]}
        self.expansions: dict = {}
        # run_lemma54 sums n <= 60 and checks n <= 200, n = 1, 4 mod 5,
        # for each of the three quotients
        self.ops_per_pass = 3 * (60 + 80)

    def hooks(self, rec):
        def power_factory(fn):
            def power(scale, exponent, prec):
                # clock readings let the recorder calibrate around each
                # expansion, the longest stretches inside the suites
                rec.clock()
                series = fn(scale, exponent, prec)
                rec.clock()
                rec.check_last(
                    lambda: digest([series.grading, series.low, *series.coeffs])
                    == self.expected_powers.get((scale, exponent, prec)))
                return series
            return power

        def expansion_factory(fn):
            def expansion(eq, prec):
                series = fn(eq, prec)
                self.expansions[str(eq.exponents)] = series
                return series
            return expansion

        def coefficient_factory(fn):
            def coefficient(i, n):
                value = rec.hooked_op(fn, i, n)
                eq = qflab.LEVEL120_QUOTIENTS[i]
                series = self.expansions.get(str(eq.exponents))
                rec.check_last(lambda: series is not None
                               and series.coeff(n) == value)
                return value
            return coefficient

        return [(qflab.qseries, "eta_expansion", power_factory),
                (qflab.verify, "eta_quotient_expansion", expansion_factory),
                (qflab.verify, "quotient_coefficient", coefficient_factory)]

    def run_pass(self, rec):
        self.expansions = {}
        props = rec.call(qflab.verify.run_props, ETA_PROPS_NMAX)
        lemma = rec.call(qflab.verify.run_lemma54, ETA_LEMMA54_PREC)
        with rec.untimed():
            return {"props": props.to_text(), "props_passed": props.passed,
                    "lemma54": lemma.to_text(), "lemma54_passed": lemma.passed,
                    "expansions": {key: digest([s.grading, s.low, *s.coeffs])
                                   for key, s in sorted(self.expansions.items())}}

    def check_pass(self, outputs):
        problems = []
        if not outputs["props_passed"]:
            problems.append("a run_props line failed")
        if not outputs["lemma54_passed"]:
            problems.append("a run_lemma54 line failed")
        if outputs["expansions"] != self.expected["expansions"]:
            problems.append("eta quotient expansions differ from the recorded digests")
        return problems


WORKLOADS = {cls.name: cls for cls in (Table1, Search, NonSplit, Cache, Eta)}


def build(name: str, seed: int, scratch: Path, refs: dict | None = None) -> Workload:
    refs = load_refs() if refs is None else refs
    cls = WORKLOADS[name]
    workload = cls(seed, refs, scratch) if cls is Cache else cls(seed, refs)
    workload.seed = seed
    return workload
