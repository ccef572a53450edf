"""Generated single-field fuzzing of every record a loader reads back,
and ``read(write(x)) == x`` for every table the library writes through.

For each record a writer first writes a valid one.  The fuzzer then
edits one field at a time, walking the record by the table its loader
reads: every field is set to each value of :data:`PALETTE` (the wrong
JSON type, out of range, non-finite, ``null``), deleted, and joined by
an unknown key; a nested record, a list's first item and a map's first
value are walked the same way.  The field's kind says what the loader
must do:

* a value its ``test`` refuses (``null`` too, unless the field defaults
  to ``None``), a missing key with no default and an unknown key are
  refused with the loader's own typed error, naming ``where.key`` (or
  ``where``, for the unknown key);
* anything else loads, or is refused with that same typed error by a
  rule that spans fields — never with an untyped exception.

A cache or the checkpoint meta reads a refusal as a miss: an
evaluation-cache entry and the ``evaluations_v2`` dump through the
typed error their callers turn into a miss, the train checkpoint as
``None``.  The hand-written probe tables
(``tests/test_record_probes.py``, ``tests/test_hw_compile.py::
RECORD_PROBES``) are the seed cases: each must be refused here too.
"""

import copy
import json
import math
import shutil
import tempfile
from typing import Callable, List, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ArtifactError,
    ArtifactStore,
    ExperimentSpec,
    Runner,
    SpecError,
)
from repro.api.artifacts import EVALUATION_CACHE_DIRNAME
from repro.api.stages import SearchStage, SpecifyStage, StoreTrainCheckpointer
from repro.bayes.evaluate import AlgorithmicReport
from repro.dropout import DROPOUT_REGISTRY
from repro.faults.plan import _PLAN, FaultEvent, FaultPlan, FaultPlanError
from repro.faults.runtime import SITE_REPLICA_DISPATCH
from repro.hw import FixedPointFormat
from repro.hw.compile import (
    FIDELITY_ARTIFACT,
    KERNEL_ARTIFACT,
    CompileError,
    FidelityReport,
    compile_and_report,
    load_kernel,
)
from repro.hw.compile.compiler import _RECORD as KERNEL_RECORD
from repro.hw.compile.kernel import _FORMAT, _LAYER_FIELDS, _OP_NEEDS, LayerPlan
from repro.hw.netlist import KIND_CONV, KIND_DROPOUT, KIND_LINEAR, KIND_POOL
from repro.search import CandidateResult, SearchResult
from repro.search.async_ea import AsyncSearchResult, RungStats
from repro.search.evolution import GenerationStats
from repro.search.space import SearchSpace, SlotSpec
from repro.search.trainer import TrainCheckpoint, TrainLog
from repro.serve import Deployment, DeploymentError
from repro.serve.deployment import _CONFIG, DEPLOYMENT_ARTIFACT
from repro.serve.deployment import _RECORD as DEPLOYMENT_RECORD
from repro.utils.fields import (
    MISSING,
    ListOf,
    MapOf,
    Record,
    read_fields,
    table_of,
    write_fields,
)
from tests.test_hw_compile import RECORD_PROBES
from tests.test_record_probes import (
    CACHE_PROBES,
    CHECKPOINT_META_PROBES,
    DEPLOYMENT_PROBES,
    FAULT_PLAN_PROBES,
    FIDELITY_PROBES,
    RUN_DIR_PROBES,
    SEARCH,
    SPEC_PROBES,
    SPECIFY_PROBES,
    _checkpoint,
    full_spec,
    run_spec,
)

#: The values every field is edited to: wrong JSON types, out of range
#: (below every ``least``, outside every ``Choice``), non-finite, null.
PALETTE = (None, True, -1, 0, 2, 0.5, float("nan"), float("inf"), "x", [],
           {})

#: Marks a deletion in a :class:`Case`.
DROP = object()


class Case(NamedTuple):
    """One single-field edit and the loader's expected verdict."""

    name: str
    path: tuple       # keys and indices down to the edited container
    key: object       # the edited key or index in that container
    value: object     # the new value, or DROP
    refusal: Optional[str]  # what the refusal starts with; None: free


def value_cases(kind, value, at, path, key, nullable):
    """Edits of one value read by ``kind`` as ``at``, then of its parts."""
    for bad in PALETTE:
        accepted = nullable if bad is None else kind.test(bad)
        yield Case(f"{at}={bad!r}", path, key, bad,
                   None if accepted else f"{at} must be ")
    yield from part_cases(kind, value, at, path + (key,))


def part_cases(kind, value, at, path):
    """Edits inside a value: a nested record's fields, a list's first
    item, a map's first value."""
    if isinstance(kind, Record):
        yield from field_cases(value, table_of(kind.cls), at, path)
    elif isinstance(kind, ListOf) and value:
        yield from value_cases(kind.item, value[0], f"{at}[0]", path, 0,
                               False)
    elif isinstance(kind, MapOf) and value:
        first = sorted(value)[0]
        yield from value_cases(kind.item, value[first], f"{at}.{first}",
                               path, first, False)


def field_cases(record, table, where, path=()):
    """Edits of each field of ``record``, read by ``table`` as ``where``."""
    yield Case(f"{where}+unknown", path, "zz_unknown", 1,
               f"unknown field(s) ['zz_unknown'] in {where};")
    for field in table:
        if field.key not in record:
            continue
        at = f"{where}.{field.key}"
        required = field.default is MISSING and field.factory is MISSING
        yield Case(f"{at}-missing", path, field.key, DROP,
                   f"{at} is required" if required else None)
        yield from value_cases(field.kind, record[field.key], at, path,
                               field.key, field.default is None)


def edited(record, path, key, value):
    """A deep copy of ``record`` with one edit applied."""
    record = copy.deepcopy(record)
    container = record
    for step in path:
        container = container[step]
    if value is DROP:
        del container[key]
    else:
        container[key] = value
    return record


class Miss(Exception):
    """A cache or checkpoint read as a miss (it names no field)."""


class Subject(NamedTuple):
    """A valid record, the loader that reads it and its typed error."""

    record: object
    load: Callable
    error: type
    cases: List[Case]
    seeds: List[Callable] = []  # hand-written edits that must be refused


def check(subject):
    """Every case's verdict; returns the failures, one line each."""
    failures = []
    for case in subject.cases:
        record = edited(subject.record, case.path, case.key, case.value)
        try:
            subject.load(record)
        except subject.error as exc:
            if (case.refusal is not None and subject.error is not Miss
                    and not str(exc).startswith(case.refusal)):
                failures.append(f"{case.name}: refused as {exc}")
            continue
        except Exception as exc:  # an untyped escape is a failure
            failures.append(f"{case.name}: escaped as "
                            f"{type(exc).__name__}: {exc}")
            continue
        if case.refusal is not None:
            failures.append(f"{case.name}: loaded")
    for index, edit in enumerate(subject.seeds):
        record = copy.deepcopy(subject.record)
        edit(record)
        try:
            subject.load(record)
        except subject.error:
            continue
        except Exception as exc:
            failures.append(f"seed {index}: escaped as "
                            f"{type(exc).__name__}: {exc}")
            continue
        failures.append(f"seed {index}: loaded")
    return failures


def roundtrip(record):
    """``record`` as JSON text reads it back (NaN and inf included)."""
    return json.loads(json.dumps(record))


# ----------------------------------------------------------------------
# The records, each written by its writer
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def deployment():
    return Deployment.from_spec(full_spec(), (1, 16, 16),
                                config=("B", "K", "M"))


@pytest.fixture(scope="module")
def compiled(deployment, tmp_path_factory):
    """A compile store of ``deployment``: kernel, report, request."""
    store = ArtifactStore(str(tmp_path_factory.mktemp("compiled")))
    compile_and_report(deployment, store, calibration_rows=8,
                       fidelity_rows=8)
    return store


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A finished ``async_ea`` run's store root and run directory."""
    root = tmp_path_factory.mktemp("runs")
    Runner(run_spec(), store_root=str(root)).run()
    return root, ArtifactStore(str(root)).subdir(run_spec().run_id)


def spec_subject(deployment, compiled, run_dir, tmp_path):
    record = roundtrip(full_spec().to_dict())
    return Subject(record, ExperimentSpec.from_dict, SpecError,
                   list(field_cases(record, table_of(ExperimentSpec),
                                    "spec")),
                   list(SPEC_PROBES.values()))


def deployment_subject(deployment, compiled, run_dir, tmp_path):
    store = ArtifactStore(deployment.save(str(tmp_path / "deployment")))
    record = store.load_json(DEPLOYMENT_ARTIFACT)

    def load(edited_record):
        store.save_json(DEPLOYMENT_ARTIFACT, edited_record)
        return Deployment.load(store.root)
    return Subject(record, load, DeploymentError,
                   list(field_cases(record, DEPLOYMENT_RECORD,
                                    "deployment")),
                   list(DEPLOYMENT_PROBES.values()))


def fault_plan_subject(deployment, compiled, run_dir, tmp_path):
    record = json.loads(FaultPlan.standard_plan().to_json())
    return Subject(record,
                   lambda plan: FaultPlan.from_json(json.dumps(plan)),
                   FaultPlanError,
                   list(field_cases(record, _PLAN, "fault plan")),
                   list(FAULT_PLAN_PROBES.values()))


def kernel_subject(deployment, compiled, run_dir, tmp_path):
    record = compiled.load_json(KERNEL_ARTIFACT)
    cases = list(field_cases(record, KERNEL_RECORD, "kernel"))
    # Every plan of one kind reads by the same tables: walk the first
    # plan of each kind, its attrs by that kind's op table.
    firsts = {}
    for index, layer in enumerate(record["layers"]):
        firsts.setdefault(layer["kind"], index)
    for kind, index in sorted(firsts.items()):
        at = f"kernel.layers[{index}]"
        layer = record["layers"][index]
        cases += field_cases(layer, _LAYER_FIELDS, at, ("layers", index))
        cases += field_cases(layer["attrs"], _OP_NEEDS[kind][0],
                             f"{at}.attrs", ("layers", index, "attrs"))
    store = ArtifactStore(shutil.copytree(compiled.root,
                                          tmp_path / "kernel"))

    def load(edited_record):
        store.save_json(KERNEL_ARTIFACT, edited_record)
        return load_kernel(store, deployment)
    return Subject(record, load, CompileError, cases,
                   list(RECORD_PROBES.values()))


def fidelity_subject(deployment, compiled, run_dir, tmp_path):
    record = compiled.load_json(FIDELITY_ARTIFACT)
    # compile_and_report's resume reads the stored report exactly so.
    return Subject(record,
                   lambda report: Record(FidelityReport).read(
                       report, CompileError, "fidelity"),
                   CompileError,
                   list(field_cases(record, table_of(FidelityReport),
                                    "fidelity")),
                   [edit for edit, _ in FIDELITY_PROBES.values()])


def train_log_subject(deployment, compiled, run_dir, tmp_path):
    record = run_dir[1].load_json("train_log")
    # TrainStage.resume reads the log exactly so.
    return Subject(record,
                   lambda log: Record(TrainLog).read(log, ArtifactError,
                                                     "train_log"),
                   ArtifactError,
                   list(field_cases(record, table_of(TrainLog),
                                    "train_log")),
                   [edit for artifact, edit, _ in RUN_DIR_PROBES.values()
                    if artifact == "train_log"])


def search_cases(record, where):
    """The envelope's fields, then its result's, by the result table
    the envelope's ``algorithm`` picks."""
    cls = SearchStage.RESULTS[record["algorithm"]].cls
    return (list(field_cases(record, SearchStage.ENVELOPE, where))
            + list(field_cases(record["result"], table_of(cls),
                               f"{where}.result", ("result",))))


def async_search_subject(deployment, compiled, run_dir, tmp_path):
    record = run_dir[1].load_json(SEARCH)
    assert record["algorithm"] == "async_ea" and record["result"]["rungs"]
    return Subject(record,
                   lambda envelope: SearchStage.read_artifact(
                       envelope, ArtifactError, SEARCH),
                   ArtifactError, search_cases(record, SEARCH),
                   [edit for artifact, edit, _ in RUN_DIR_PROBES.values()
                    if artifact == SEARCH])


def lockstep_search_subject(deployment, compiled, run_dir, tmp_path):
    envelope = run_dir[1].load_json(SEARCH)
    result = SearchStage.RESULTS["async_ea"].read(
        envelope["result"], ArtifactError, SEARCH)
    lockstep = SearchResult(**{field.key: getattr(result, field.key)
                               for field in table_of(SearchResult)})
    # SearchStage.search_one's write, on the lock-step result.
    record = roundtrip(write_fields(
        {"aim": envelope["aim"], "algorithm": "lockstep",
         "seconds": envelope["seconds"], "result": lockstep},
        SearchStage.ENVELOPE))
    return Subject(record,
                   lambda edited_record: SearchStage.read_artifact(
                       edited_record, ArtifactError, SEARCH),
                   ArtifactError, search_cases(record, SEARCH))


def specify_subject(deployment, compiled, run_dir, tmp_path):
    record = run_dir[1].load_json(SpecifyStage.ARTIFACT)
    # Deployment.from_run reads the slot record exactly so.
    return Subject(record,
                   lambda specify: read_fields(
                       specify, SpecifyStage.RECORD, DeploymentError,
                       SpecifyStage.ARTIFACT),
                   DeploymentError,
                   list(field_cases(record, SpecifyStage.RECORD,
                                    SpecifyStage.ARTIFACT)),
                   [edit for edit, _ in SPECIFY_PROBES.values()])


def dump_subject(deployment, compiled, run_dir, tmp_path):
    record = run_dir[1].load_json(SearchStage.CACHE)
    # ensure_evaluator preloads nothing on this error: a miss.
    return Subject(record,
                   lambda dump: SearchStage.DUMP.read(
                       dump, ArtifactError, SearchStage.CACHE),
                   ArtifactError,
                   list(part_cases(SearchStage.DUMP, record,
                                   SearchStage.CACHE, ())),
                   [lambda entries, edit=edit: [edit(entry)
                                                for entry in entries]
                    for edit in CACHE_PROBES.values()])


def cache_entry_subject(deployment, compiled, run_dir, tmp_path):
    (path, *_) = sorted((run_dir[0] / EVALUATION_CACHE_DIRNAME)
                        .glob("*/*.json"))
    record = json.loads(path.read_text())["payload"]
    # The evaluator's disk read turns this ValueError into a miss.
    return Subject(record, CandidateResult.from_dict, ValueError,
                   list(field_cases(record, table_of(CandidateResult),
                                    "CandidateResult")),
                   list(CACHE_PROBES.values()))


def checkpoint_subject(deployment, compiled, run_dir, tmp_path):
    store = ArtifactStore(str(tmp_path / "checkpoint"))
    checkpointer = StoreTrainCheckpointer(store, "context")
    checkpointer.save(_checkpoint())
    arrays = store.load_state(StoreTrainCheckpointer.ARTIFACT)
    record = json.loads(bytes(arrays["meta"]).decode("utf-8"))

    def load(meta):
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                       dtype=np.uint8)
        store.save_state(StoreTrainCheckpointer.ARTIFACT, arrays)
        if checkpointer.load() is None:
            raise Miss()
    return Subject(record, load, Miss,
                   list(field_cases(record, checkpointer.meta_fields,
                                    "meta")),
                   list(CHECKPOINT_META_PROBES.values()))


SUBJECTS = {
    "spec": spec_subject,
    "deployment": deployment_subject,
    "fault-plan": fault_plan_subject,
    "kernel": kernel_subject,
    "fidelity": fidelity_subject,
    "train-log": train_log_subject,
    "search-async": async_search_subject,
    "search-lockstep": lockstep_search_subject,
    "specify": specify_subject,
    "evaluations-dump": dump_subject,
    "eval-cache-entry": cache_entry_subject,
    "checkpoint-meta": checkpoint_subject,
}


@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_every_single_field_edit_gets_its_kinds_verdict(
        name, deployment, compiled, run_dir, tmp_path):
    subject = SUBJECTS[name](deployment, compiled, run_dir, tmp_path)
    subject.load(copy.deepcopy(subject.record))  # the written record loads
    assert len(subject.cases) > 10
    failures = check(subject)
    assert not failures, "\n".join(failures[:20])


def test_every_table_is_walked(deployment, compiled, run_dir, tmp_path):
    """Every record table a loader reads, nested ones included, is
    reached by a case."""
    walked = set()
    for make in SUBJECTS.values():
        for case in make(deployment, compiled, run_dir, tmp_path).cases:
            walked.add(case.name.split("=")[0].split("-missing")[0]
                       .split("+unknown")[0])
    for where in ("spec.train", "spec.search.evolution",
                  "spec.search.fidelity_rungs[0]", "spec.accelerator",
                  "spec.generate", "deployment.fixed_point",
                  "deployment.spec", "fault plan.events[0]",
                  "kernel.layers[0]", "kernel.layers[0].attrs",
                  "fidelity.layers[0]", "train_log",
                  f"{SEARCH}.result.best.report",
                  f"{SEARCH}.result.history[0]",
                  f"{SEARCH}.result.rungs[0]", "specify.slots[0]",
                  "evaluations_v2[0].report", "CandidateResult.report",
                  "meta"):
        assert where in walked, where


# ----------------------------------------------------------------------
# read(write(x)) == x, one property per table written through
# ----------------------------------------------------------------------
CODES = st.sampled_from(sorted(DROPOUT_REGISTRY))
NAMES = st.text("abcdefgh._", min_size=1, max_size=8)
FORMATS = st.integers(1, 64).flatmap(lambda total: st.builds(
    FixedPointFormat, st.just(total), st.integers(0, total - 1)))
SHAPES = st.lists(st.integers(1, 64), min_size=1, max_size=3).map(tuple)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
MEASURED = st.floats()


def _text(value):
    """JSON text, so NaN compares equal to NaN."""
    return json.dumps(value, sort_keys=True)


class TestKindWriters:
    @settings(max_examples=50, deadline=None)
    @given(FORMATS)
    def test_format_writes_total_and_fraction(self, fmt):
        assert _FORMAT.write(fmt) == [fmt.total_bits, fmt.fraction_bits]
        assert _FORMAT.read(roundtrip(_FORMAT.write(fmt)), CompileError,
                            "f") == fmt

    @settings(max_examples=50, deadline=None)
    @given(st.lists(CODES, min_size=1, max_size=6).map(tuple))
    def test_config_writes_its_table_2_string(self, config):
        assert _CONFIG.write(config) == "-".join(config)
        assert _CONFIG.read(_CONFIG.write(config), DeploymentError,
                            "c") == config

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.builds(SlotSpec, NAMES,
                              st.sampled_from(["conv", "fc"]),
                              st.lists(CODES, min_size=1, unique=True)
                              .map(tuple)),
                    min_size=1, max_size=4,
                    unique_by=lambda slot: slot.name))
    def test_slots_write_the_space_by_its_slots(self, slots):
        kind = dict((field.key, field.kind)
                    for field in SpecifyStage.RECORD)["slots"]
        space = SearchSpace(slots)
        read = kind.read(roundtrip(kind.write(space)), DeploymentError, "s")
        assert read.slots == space.slots


def layer_plans():
    """Layer plans of every kind, with the tensors their op needs."""
    def plan(kind, name, formats, shapes, weight_error, slot, attrs_seed):
        attrs = {}
        for field in _OP_NEEDS[kind][0]:
            if field.key == "average":
                attrs[field.key] = bool(attrs_seed % 2)
            elif field.key == "negative_slope":
                attrs[field.key] = 0.25 if attrs_seed % 2 else None
            else:
                attrs[field.key] = 1 + attrs_seed % 3
        if kind == KIND_POOL and not attrs.get("average"):
            attrs["padding"] = min(attrs["padding"],
                                   attrs["kernel_size"] // 2)
        attrs = {key: value for key, value in attrs.items()
                 if value is not None}
        tensors = {key: np.arange(4, dtype=np.int64)
                   for key in _OP_NEEDS[kind][1]}
        if attrs_seed % 2 and kind in (KIND_CONV, KIND_LINEAR):
            tensors["bias"] = np.zeros(2, dtype=np.int64)
        dropout = kind == KIND_DROPOUT
        return LayerPlan(
            name=name, kind=kind, in_shape=shapes[0], out_shape=shapes[1],
            in_format=formats[0], out_format=formats[1],
            weight_format=formats[2] if tensors else None,
            mask_format=formats[3] if dropout else None,
            attrs=attrs, tensors=tensors, weight_error=weight_error,
            dropout_code=slot[0] if dropout else None,
            slot_name=slot[1] if dropout else None)
    return st.builds(
        plan, st.sampled_from(sorted(_OP_NEEDS)), NAMES,
        st.lists(FORMATS, min_size=4, max_size=4),
        st.lists(SHAPES, min_size=2, max_size=2), FINITE,
        st.tuples(CODES, NAMES), st.integers(0, 5))


class TestTablesRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(layer_plans(), min_size=1, max_size=4,
                    unique_by=lambda plan: plan.name),
           st.text("0123456789abcdef", min_size=64, max_size=64))
    def test_kernel_record_and_layer_plans(self, plans, fingerprint):
        record = roundtrip(write_fields(
            {"kernel_version": 1, "deployment_fingerprint": fingerprint,
             "layers": [plan.to_dict() for plan in plans]}, KERNEL_RECORD))
        values = read_fields(record, KERNEL_RECORD, CompileError, "kernel")
        assert values["deployment_fingerprint"] == fingerprint
        tensors = {plan.name: plan.tensors for plan in plans}
        for plan, entry in zip(plans, values["layers"]):
            read = LayerPlan.from_dict(entry, tensors)
            for field in table_of(LayerPlan):
                assert getattr(read, field.key) == getattr(plan, field.key)
            assert read.to_dict() == plan.to_dict()
            assert entry["tensor_keys"] == sorted(plan.tensors)

    @settings(max_examples=40, deadline=None)
    @given(st.builds(
        Deployment, spec=st.builds(ExperimentSpec, name=NAMES,
                                   seed=st.integers(0, 2 ** 40),
                                   mc_samples=st.integers(1, 8)),
        config=st.lists(CODES, min_size=1, max_size=4).map(tuple),
        input_shape=st.lists(st.integers(1, 64), min_size=3,
                             max_size=3).map(tuple),
        weights=st.just({}), fixed_point=FORMATS,
        aim=st.one_of(st.none(), NAMES),
        serve_seed=st.integers(0, 2 ** 62)))
    def test_deployment_record(self, deployment):
        record = roundtrip(deployment._record())
        values = read_fields(record, DEPLOYMENT_RECORD, DeploymentError,
                             "deployment")
        assert values.pop("deployment_version") == 1
        assert Deployment(weights={}, **values) == deployment

    @settings(max_examples=40, deadline=None)
    @given(SHAPES, NAMES, st.integers(0, 10 ** 6),
           st.lists(st.builds(SlotSpec, NAMES,
                              st.sampled_from(["conv", "fc"]),
                              st.lists(CODES, min_size=1, unique=True)
                              .map(tuple)),
                    min_size=1, max_size=4,
                    unique_by=lambda slot: slot.name))
    def test_specify_record(self, shape, dataset, size, slots):
        space = SearchSpace(slots)
        written = {"input_shape": (shape + (1, 1, 1))[:3],
                   "dataset": dataset, "dataset_size": size,
                   "space_size": space.size, "slots": space}
        values = read_fields(
            roundtrip(write_fields(written, SpecifyStage.RECORD)),
            SpecifyStage.RECORD, DeploymentError, "specify")
        assert values.pop("slots").slots == space.slots
        assert values == {key: value for key, value in written.items()
                          if key != "slots"}

    @staticmethod
    def candidates():
        return st.builds(
            CandidateResult, st.lists(CODES, min_size=1, max_size=4)
            .map(tuple),
            st.builds(AlgorithmicReport, MEASURED, MEASURED, MEASURED,
                      MEASURED, MEASURED, st.integers(1, 8),
                      st.dictionaries(NAMES, MEASURED, max_size=2)),
            MEASURED)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_search_envelope_and_dump(self, data):
        candidate = self.candidates()
        history = st.lists(st.builds(
            GenerationStats, st.integers(0, 9), MEASURED, MEASURED,
            st.lists(CODES, min_size=1, max_size=4).map(tuple),
            st.integers(0, 99)), max_size=2)
        algorithm = data.draw(st.sampled_from(sorted(SearchStage.RESULTS)))
        fields = dict(best=data.draw(candidate),
                      best_score=data.draw(MEASURED),
                      history=data.draw(history),
                      num_evaluations=data.draw(st.integers(0, 99)),
                      cache_hits=data.draw(st.integers(0, 99)))
        if algorithm == "async_ea":
            result = AsyncSearchResult(rungs=data.draw(st.lists(st.builds(
                RungStats, st.integers(0, 3), st.integers(1, 8),
                st.integers(0, 99), st.integers(0, 99), MEASURED,
                st.one_of(st.none(), MEASURED)), max_size=2)), **fields)
        else:
            result = SearchResult(**fields)
        seconds = data.draw(MEASURED)
        record = roundtrip(write_fields(
            {"aim": "Accuracy Optimal", "algorithm": algorithm,
             "seconds": seconds, "result": result}, SearchStage.ENVELOPE))
        read, read_seconds = SearchStage.read_artifact(
            record, ArtifactError, "search")
        assert type(read) is type(result)
        assert _text(read.to_dict()) == _text(result.to_dict())
        assert math.isnan(read_seconds) if math.isnan(seconds) \
            else read_seconds == seconds
        dump = data.draw(st.lists(candidate, max_size=3))
        read_dump = SearchStage.DUMP.read(
            roundtrip(SearchStage.DUMP.write(dump)), ArtifactError, "dump")
        assert _text([entry.to_dict() for entry in read_dump]) \
            == _text([entry.to_dict() for entry in dump])

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(NAMES, FORMATS, max_size=4))
    def test_compile_request_overrides(self, overrides):
        kind = MapOf(_FORMAT)
        assert kind.read(roundtrip(kind.write(overrides)), CompileError,
                         "overrides") == overrides

    @settings(max_examples=30, deadline=None)
    @given(st.builds(
        TrainCheckpoint, epochs_done=st.integers(0, 99),
        epoch_losses=st.lists(MEASURED, max_size=4),
        steps=st.integers(0, 10 ** 6), wall_seconds=MEASURED,
        rng_state=st.dictionaries(NAMES, st.integers(0, 2 ** 64)),
        model_state=st.just({"w": np.arange(3, dtype=np.float32)}),
        optimizer_state=st.just({}),
        stochastic_state=st.one_of(st.none(),
                                   st.dictionaries(NAMES, NAMES))))
    def test_train_checkpoint_meta(self, checkpoint):
        with tempfile.TemporaryDirectory() as root:
            checkpointer = StoreTrainCheckpointer(ArtifactStore(root),
                                                  "context")
            checkpointer.save(checkpoint)
            loaded = checkpointer.load()
        assert _text(write_fields(loaded)) == _text(write_fields(checkpoint))
        assert np.array_equal(loaded.model_state["w"],
                              checkpoint.model_state["w"])

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.builds(FaultEvent, st.just(SITE_REPLICA_DISPATCH),
                              st.integers(0, 50),
                              st.sampled_from(["kill", "slow"]),
                              st.floats(0, 5)),
                    max_size=4, unique_by=lambda event: event.visit),
           st.integers(0, 9))
    def test_fault_plan(self, events, seed):
        plan = FaultPlan(events=tuple(events), seed=seed)
        assert FaultPlan.from_json(plan.to_json()) == plan
