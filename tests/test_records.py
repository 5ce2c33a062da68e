"""The records the session loop builds on every call, attempt or session
are immutable values: frozen, compared and hashed by value, and they
survive `replace`, `copy.copy` and a pickle round trip unchanged. Their
fields live in slots, and a record has no `__dict__`."""

import copy
import pickle
from dataclasses import FrozenInstanceError, field, fields, replace

import pytest

from lelma import _record
from lelma.gateway import ChatMessage, CompletionResult, Usage
from lelma.orchestrator import AttemptRecord, ExitReason, SessionTranscript
from lelma.translator import ParseDiagnostics
from lelma.verification import Query, QueryKind, QueryResult, VerificationReport

HOLDS = QueryResult(Query(QueryKind.HIGHER, (5, 3), "higher(5, 3)"), True, (), "Confirmed")
FAILS = QueryResult(
    Query(QueryKind.LOWER, (5, 3), "lower(5,3)"), False, (("relation", "higher"),), "5 is higher"
)
ERRORED = QueryResult(
    Query(QueryKind.OUTCOME, ("B", 3, "B")), False, (), "Could not verify", error="depth limit"
)


def report():
    return VerificationReport((HOLDS, FAILS, ERRORED))


def attempt():
    return AttemptRecord(1, "pick", "I pick B", "lower(5,3)", report(), "B", ExitReason.NONE)


# Each record's name, a factory of one value, and a field change that gives an unequal value.
RECORDS = {
    "Query": (lambda: Query(QueryKind.OUTCOME, ("B", 3, "R"), "finally(...)"), {"args": ("B", 4, "R")}),
    "QueryResult": (lambda: FAILS, {"holds": True}),
    "VerificationReport": (report, {"results": (HOLDS,)}),
    "ParseDiagnostics": (lambda: ParseDiagnostics(2, (("hi", "not a query"),)), {"parsed_count": 3}),
    "ChatMessage": (lambda: ChatMessage("user", "hello"), {"role": "system"}),
    "Usage": (lambda: Usage(3, 4), {"completion_tokens": 5}),
    "CompletionResult": (lambda: CompletionResult("text", Usage(3, 4), 0.25), {"latency": 0.5}),
    "AttemptRecord": (attempt, {"exit": ExitReason.MAX_ATTEMPTS}),
    "SessionTranscript": (
        lambda: SessionTranscript("pd-1", "pd", "mock-model", (attempt(),), Usage(3, 4), 0.5),
        {"error": "ProviderError: boom"},
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_cannot_be_changed(name):
    make, _ = RECORDS[name]
    record = make()
    for f in fields(record):
        with pytest.raises(FrozenInstanceError):
            setattr(record, f.name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(record, f.name)
    assert record == make()


@pytest.mark.parametrize("name", RECORDS)
def test_equal_values_are_equal_records_with_equal_hashes(name):
    make, change = RECORDS[name]
    a, b = make(), make()
    assert a == b and hash(a) == hash(b)
    other = replace(a, **change)
    assert other != a and a == b


def test_a_query_is_compared_and_hashed_without_its_source_text():
    a = Query(QueryKind.HIGHER, (5, 3), "higher(5, 3)")
    b = Query(QueryKind.HIGHER, (5, 3), "HIGHER(5,3).")
    assert a == b and hash(a) == hash(b)
    assert a.source_text != b.source_text


@pytest.mark.parametrize("name", RECORDS)
@pytest.mark.parametrize(
    "duplicate",
    [replace, copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["replace", "copy", "deepcopy", "pickle"],
)
def test_a_duplicated_record_equals_its_original(name, duplicate):
    make, _ = RECORDS[name]
    record = make()
    twin = duplicate(record)
    assert twin == record and hash(twin) == hash(record)
    assert type(twin) is type(record)
    for f in fields(record):
        assert getattr(twin, f.name) == getattr(record, f.name)


@pytest.mark.parametrize(
    "duplicate",
    [lambda r: r, replace, copy.copy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["original", "replace", "copy", "pickle"],
)
def test_a_report_lists_its_failed_results_only(duplicate):
    # A result that holds or errored is not failed.
    assert duplicate(report()).failed == (FAILS,)
    assert duplicate(attempt()).report.failed == (FAILS,)
    assert duplicate(VerificationReport(())).failed == ()


def test_a_replaced_report_recomputes_its_failed_results():
    assert replace(report(), results=(HOLDS, ERRORED)).failed == ()
    assert replace(VerificationReport((HOLDS,)), results=(FAILS, FAILS)).failed == (FAILS, FAILS)


def test_records_print_as_before():
    assert repr(Usage(3, 4)) == "Usage(prompt_tokens=3, completion_tokens=4)"
    assert repr(ChatMessage("user", "hi")) == "ChatMessage(role='user', content='hi')"
    assert repr(Query(QueryKind.HIGHER, (5, 3), "higher(5,3)")) == (
        "Query(kind=<QueryKind.HIGHER: 'higher'>, args=(5, 3), source_text='higher(5,3)')"
    )
    assert repr(VerificationReport((HOLDS,))) == f"VerificationReport(results=({HOLDS!r},))"
    assert repr(ParseDiagnostics(1, ())) == "ParseDiagnostics(parsed_count=1, skipped=())"


def test_a_record_is_built_by_position_by_keyword_and_with_defaults():
    assert Query(QueryKind.HIGHER, (5, 3)) == Query(kind=QueryKind.HIGHER, args=(5, 3))
    assert Query(QueryKind.HIGHER, (5, 3)).source_text == ""
    assert Usage() == Usage(0, 0) == Usage(completion_tokens=0)
    result = QueryResult(HOLDS.query, True)
    assert (result.corrections, result.explanation, result.error) == ((), "", None)
    with pytest.raises(TypeError):
        Query(QueryKind.HIGHER)
    with pytest.raises(TypeError):
        Usage(1, 2, 3)
    with pytest.raises(TypeError):
        Usage(tokens=1)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_keeps_its_fields_in_slots(name):
    record = RECORDS[name][0]()
    assert not hasattr(record, "__dict__")
    assert {f.name for f in fields(record)} <= set(type(record).__slots__)


def test_a_record_takes_no_field_it_cannot_build_in_its_init():
    class Listed:
        items: list = field(default_factory=list)

    class Named:
        name: str = field(default="", kw_only=True)

    for cls in (Listed, Named):
        with pytest.raises(TypeError, match="a record takes no default_factory or kw_only"):
            _record.record(cls)
