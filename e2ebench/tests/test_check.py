"""The digest notices what a broken engine would do to a result."""

import json

from e2ebench import check

VARIABLES = ["x", "y", "mail"]
ROWS = [["<a>", "<p1>", '"a@x"'],
        ["<b>", "<p1>", None],
        ["<c>", "<p2>", '"c@x"'],
        ["<c>", "<p2>", '"c@x"']]  # bags: duplicates count


def test_row_and_column_order_do_not_matter():
    want = check.digest(VARIABLES, ROWS)
    assert check.digest(VARIABLES, list(reversed(ROWS))) == want
    swapped = [[row[2], row[0], row[1]] for row in ROWS]
    assert check.digest(["mail", "x", "y"], swapped) == want


def test_a_dropped_row_changes_the_digest():
    assert check.digest(VARIABLES, ROWS[:-1]) != check.digest(VARIABLES, ROWS)
    # even when the count is kept by duplicating another row
    forged = ROWS[:-1] + [ROWS[0]]
    assert check.digest(VARIABLES, forged) != check.digest(VARIABLES, ROWS)


def test_a_null_turned_into_a_value_changes_the_digest():
    flipped = [list(row) for row in ROWS]
    flipped[1][2] = '"b@x"'
    assert check.digest(VARIABLES, flipped) != check.digest(VARIABLES, ROWS)
    # ... and so does NULL spelled as a string
    spelled = [list(row) for row in ROWS]
    spelled[1][2] = "None"
    assert check.digest(VARIABLES, spelled) != check.digest(VARIABLES, ROWS)


def _reply(rows, ok=True, exec_s=0.001):
    if not ok:
        return json.dumps({"ok": False, "id": 1, "error": {
            "type": "timeout", "message": "too slow"}}).encode() + b"\n"
    return json.dumps(
        {"ok": True, "id": 1, "variables": VARIABLES, "rows": rows,
         "stats": {"t_init": 0.0}, "snapshot_version": 1, "wait_s": 0.0,
         "exec_s": exec_s}, separators=(",", ":")).encode() + b"\n"


def test_checker_counts_wrong_and_refused_answers_as_failed():
    checker = check.Checker({"q": check.digest(VARIABLES, ROWS)})
    assert checker.query("k", "q", _reply(ROWS))[0] == 4
    # identical bytes: the fingerprint path; the envelope still decodes
    rows, envelope = checker.query("k", "q", _reply(ROWS, exec_s=0.5))
    assert (rows, envelope["exec_s"], envelope["ok"]) == (4, 0.5, True)
    # same rows in another order: full check, still right
    assert checker.query("k", "q", _reply(list(reversed(ROWS))))[0] == 4
    assert (checker.attempted, checker.failed) == (3, 0)
    checker.query("k", "q", _reply(ROWS[:-1]))          # dropped row
    checker.query("k", "q", _reply(ROWS, ok=False))     # refused
    assert (checker.attempted, checker.failed) == (5, 2)
    assert "k" in checker.first_failure


def test_a_wrong_answer_is_never_remembered_as_right():
    checker = check.Checker({"q": check.digest(VARIABLES, ROWS)})
    for _ in range(3):
        checker.query("k", "q", _reply(ROWS[:-1]))
    assert (checker.attempted, checker.failed) == (3, 3)


def test_a_text_without_a_reference_answer_fails():
    # never "it answered the same as last time": that passes any
    # engine that is wrong the same way twice
    checker = check.Checker({})
    checker.query("k", "adhoc", _reply(ROWS))
    checker.query("k", "adhoc", _reply(ROWS))
    assert (checker.attempted, checker.failed) == (2, 2)
