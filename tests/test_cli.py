"""End-to-end CLI tests through subprocess: outputs, exit codes, pipelines."""

import subprocess
import sys

import pytest

from gf4codes import (FormatError, MatrixFormatError, catalog, emit_matrix,
                      parse_bounds_table, parse_enumerator, parse_matrix)

C5_2_TEXT = "5 2\n1 0 1 2 2\n0 1 2 2 1\n"
FULL_SPACE_TEXT = "2 2\n1 0\n0 1\n"


def run(*args, stdin=None):
    return subprocess.run([sys.executable, "-m", "gf4codes", *args],
                          input=stdin, capture_output=True, text=True)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_self_orthogonal():
    proc = run("check", "catalog:c5_2")
    assert proc.returncode == 0
    assert proc.stdout == ("n: 5\n"
                           "k: 2\n"
                           "hermitian_self_orthogonal: true\n"
                           "trace_self_orthogonal: true\n"
                           "even: true\n"
                           "self_dual: false\n")


def test_check_rejects_non_self_orthogonal():
    proc = run("check", "-", stdin=FULL_SPACE_TEXT)
    assert proc.returncode == 3
    assert "hermitian_self_orthogonal: false" in proc.stdout


def test_check_reports_self_duality():
    proc = run("check", "catalog:hexacode")
    assert proc.returncode == 0
    assert "self_dual: true" in proc.stdout


# ---------------------------------------------------------------------------
# wenum / macwilliams / dual-distance
# ---------------------------------------------------------------------------

def test_wenum_output():
    proc = run("wenum", "catalog:c5_2")
    assert proc.returncode == 0
    assert proc.stdout == "0 1\n4 15\n"


def test_wenum_csv_and_stdin():
    assert run("wenum", "catalog:c5_2", "--csv").stdout == "0,1\n4,15\n"
    proc = run("wenum", "-", stdin=C5_2_TEXT)
    assert proc.returncode == 0
    assert proc.stdout == "0 1\n4 15\n"


def test_wenum_partitions_are_equivalent():
    base = run("wenum", "catalog:c13_6_a")
    split = run("wenum", "catalog:c13_6_a", "--partitions", "8")
    assert base.returncode == split.returncode == 0
    assert base.stdout == split.stdout


def test_wenum_partitions_past_the_codewords():
    base = run("wenum", "catalog:c5_2")
    huge = run("wenum", "catalog:c5_2", "--partitions", str(10 ** 12))
    assert base.returncode == huge.returncode == 0
    assert huge.stdout == base.stdout and huge.stderr == ""


def test_macwilliams_command(tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("0 1\n4 15\n")
    proc = run("macwilliams", str(path), "--n", "5", "--k", "2")
    assert proc.returncode == 0
    assert proc.stdout == "0 1\n3 30\n4 15\n5 18\n"


def test_dual_distance_command():
    proc = run("dual-distance", "catalog:c13_6_b")
    assert proc.returncode == 0
    assert proc.stdout == "dual_distance: 5\n"


def test_dual_distance_sentinel_note():
    proc = run("dual-distance", "-", stdin=FULL_SPACE_TEXT)
    assert proc.returncode == 0
    assert proc.stdout == ("dual_distance: 3\n"
                           "note: dual is the zero code (distance is the n+1 sentinel)\n")


# ---------------------------------------------------------------------------
# shorten / circulant
# ---------------------------------------------------------------------------

def test_shorten_output():
    proc = run("shorten", "catalog:hexacode", "--at", "0")
    assert proc.returncode == 0
    assert proc.stdout == "5 2\n1 0 1 2 1\n0 1 1 1 2\n"


def test_shorten_emit_writes_file(tmp_path):
    out = tmp_path / "short.txt"
    proc = run("shorten", "catalog:hexacode", "--at", "0", "--emit", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert out.read_text() == "5 2\n1 0 1 2 1\n0 1 1 1 2\n"


def test_shorten_position_validation():
    proc = run("shorten", "catalog:c5_2", "--at", "9")
    assert proc.returncode == 3
    assert proc.stderr.startswith("error:")


def test_circulant_matches_catalog():
    expected = emit_matrix(catalog.get("c13_6_a").code)
    compact = run("circulant", "--first-row", "0000100210233", "--k", "6")
    spaced = run("circulant", "--first-row", "0 0 0 0 1 0 0 2 1 0 2 3 3", "--k", "6")
    assert compact.returncode == spaced.returncode == 0
    assert compact.stdout == expected
    assert spaced.stdout == expected


def test_circulant_zero_code_round_trips():
    proc = run("circulant", "--first-row", "0000", "--k", "1")
    assert proc.returncode == 0
    assert proc.stdout == "4 0\n"
    assert proc.stderr == "warning: dropped 1 dependent generator row(s) at indices [0]\n"
    assert parse_matrix(proc.stdout).k == 0
    check = run("check", "-", stdin=proc.stdout)
    assert check.returncode == 0
    assert check.stdout.startswith("n: 4\nk: 0\n")


def test_circulant_rejects_bad_k():
    proc = run("circulant", "--first-row", "123", "--k", "5")
    assert proc.returncode == 3


# ---------------------------------------------------------------------------
# double / quantum
# ---------------------------------------------------------------------------

def test_double_odd_report():
    proc = run("double", "--a", "catalog:c5_2", "--b", "catalog:c5_2",
               "--x1", "allones", "--mode", "odd")
    assert proc.returncode == 0
    assert proc.stdout == ("mode: odd\n"
                           "inputs: [5,2] [5,2]\n"
                           "x1_weight: 5\n"
                           "n: 11\n"
                           "k: 3\n"
                           "self_orthogonal: true\n"
                           "dual_distance: 3\n"
                           "bound: 3\n")


def test_double_even_then_quantum(tmp_path):
    out = tmp_path / "doubled.txt"
    proc = run("double", "--a", "catalog:c5_2", "--b", "catalog:c5_2",
               "--x1", "allones", "--x2", "allones", "--emit", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ("mode: even\n"
                           "inputs: [5,2] [5,2]\n"
                           "x1_weight: 5\n"
                           "x2_weight: 5\n"
                           "n: 12\n"
                           "k: 4\n"
                           "self_orthogonal: true\n"
                           "dual_distance: 4\n"
                           "bound: 4\n"
                           f"emitted: {out}\n")
    quantum = run("quantum", str(out))
    assert quantum.returncode == 0
    assert quantum.stdout == ("n: 12\n"
                              "k: 4\n"
                              "d: 4\n"
                              "pure: true\n"
                              "degenerate: false\n"
                              "[[12,4,4]] pure\n")


def test_double_x_specifications_agree(tmp_path):
    xfile = tmp_path / "x.txt"
    xfile.write_text("1 1 1 1 1\n")
    runs = [run("double", "--a", "catalog:c5_2", "--b", "catalog:c5_2",
                "--x1", spec, "--x2", spec)
            for spec in ("allones", "search", str(xfile))]
    assert all(p.returncode == 0 for p in runs)
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout


@pytest.mark.parametrize("mode, enumerated", [
    # C11 and C2 for the bound, then the [2n+1, k+1] code itself.
    ("odd", [3, 2, 3]),
    # C11 and C22 for the bound, then the [2n+2, k+2] code itself.
    ("even", [3, 3, 4]),
])
def test_double_enumerates_only_what_its_mode_prints(monkeypatch, capsys, mode, enumerated):
    from gf4codes import cli, doubling, enumerator
    catalog.get("c5_2")
    calls = []
    real = enumerator.weight_enumerator

    def counting(code, **kwargs):
        calls.append(code.k)
        return real(code, **kwargs)

    monkeypatch.setattr(enumerator, "weight_enumerator", counting)
    built = []

    def recording(name):
        real_build = getattr(doubling, name)

        def build(*args):
            built.append(name)
            return real_build(*args)
        return build

    for name in ("double_odd", "double_even", "auxiliary_code"):
        monkeypatch.setattr(doubling, name, recording(name))
    assert cli.main(["double", "--a", "catalog:c5_2", "--b", "catalog:c5_2",
                     "--x1", "allones", "--x2", "allones", "--mode", mode]) == 0
    assert calls == enumerated
    # Every code is built through the module-level names, which the
    # benchmark's span tracer wraps: the doubled code, then C11 (and C22).
    assert built == {"odd": ["double_odd", "auxiliary_code"],
                     "even": ["double_even", "auxiliary_code", "auxiliary_code"]}[mode]
    assert f"mode: {mode}\n" in capsys.readouterr().out


def test_double_search_failure_is_reported():
    proc = run("double", "--a", "catalog:hexacode", "--b", "catalog:hexacode",
               "--x1", "search")
    assert proc.returncode == 3
    assert "no odd-weight dual vector" in proc.stderr


def test_quantum_degenerate_summary():
    proc = run("quantum", "catalog:hexacode")
    assert proc.returncode == 0
    assert proc.stdout.endswith("[[6,0,4]] pure (degenerate)\n")
    assert "degenerate: true" in proc.stdout


def test_quantum_inconsistency_exits_5(monkeypatch, capsys):
    from gf4codes import cli, quantum
    # A dual enumerator equal to the code's, as if C were its own dual at n != 2k.
    monkeypatch.setattr(quantum, "macwilliams", lambda w, k: w)
    assert cli.main(["quantum", "catalog:c5_2"]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: dual equals the code but n != 2k\n"


def test_quantum_bounds_annotation(tmp_path):
    doubled = tmp_path / "doubled.txt"
    run("double", "--a", "catalog:c5_2", "--b", "catalog:c5_2",
        "--x1", "allones", "--x2", "allones", "--emit", str(doubled))
    bounds = tmp_path / "bounds.csv"
    bounds.write_text("12,4,4,4\n")
    proc = run("quantum", str(doubled), "--bounds", str(bounds))
    assert proc.returncode == 0
    assert "table_d_lower: 4\n" in proc.stdout
    assert "table_d_upper: 4\n" in proc.stdout
    assert "meets_table_upper: true\n" in proc.stdout
    malformed = tmp_path / "bad.csv"
    malformed.write_text("a,b\n")
    proc = run("quantum", str(doubled), "--bounds", str(malformed))
    assert proc.returncode == 3
    assert proc.stdout == ""
    missing = tmp_path / "other.csv"
    missing.write_text("99,1,2,3\n")
    proc = run("quantum", str(doubled), "--bounds", str(missing))
    assert "table_entry: none\n" in proc.stdout


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_listing():
    proc = run("catalog")
    assert proc.returncode == 0
    assert proc.stdout == ("c13_6_a [13,6,6]\n"
                           "c13_6_b [13,6,6]\n"
                           "c14_7 [14,7,6]\n"
                           "c5_2 [5,2,4]\n"
                           "c8_4 [8,4,4]\n"
                           "c8_4_shortened [7,3,4]\n"
                           "hexacode [6,3,4]\n"
                           "hexacode_shortened [5,2,4]\n")


def test_catalog_detail():
    proc = run("catalog", "c5_2")
    assert proc.returncode == 0
    assert proc.stdout == ("name: c5_2\n"
                           "provenance: embedded literal generator matrix\n"
                           "n: 5\n"
                           "k: 2\n"
                           "d: 4\n"
                           "dual_distance: 3\n"
                           "self_dual: false\n"
                           "matrix:\n" + C5_2_TEXT)


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def decorate(text):
    """`text` with CRLF line ends, indented comments, lines of only
    whitespace, and blank lines at both ends."""
    lines = ["", " \t ", "  # leading comment"]
    for line in text.splitlines():
        lines += [line, "\t# indented comment", "   "]
    return "\r\n".join(lines + ["", ""]) + "\r\n"


def test_text_formats_read_decorated_text_as_plain(tmp_path):
    matrix, enum, bounds, vector = C5_2_TEXT, "0 1\n4 15\n", "12,4,4,4\n5,1,3,3\n", "1 1 1\n1 1\n"
    assert parse_matrix(decorate(matrix)) == parse_matrix(matrix)
    assert parse_enumerator(decorate(enum), 5) == parse_enumerator(enum, 5)
    assert parse_bounds_table(decorate(bounds)) == parse_bounds_table(bounds)
    plain, decorated = tmp_path / "x.txt", tmp_path / "x_decorated.txt"
    plain.write_text(vector)
    decorated.write_bytes(decorate(vector).encode())
    runs = [run("double", "--a", "catalog:c5_2", "--b", "catalog:c5_2",
                "--x1", str(path), "--x2", str(path)) for path in (plain, decorated)]
    assert runs[0].returncode == runs[1].returncode == 0
    assert runs[0].stdout == runs[1].stdout and "x1_weight: 5\n" in runs[0].stdout
    # Errors count every physical line: each bad row follows two comments.
    with pytest.raises(MatrixFormatError, match="^line 4: invalid digit '4'$"):
        parse_matrix("# a\r\n  # b\r\n3 1\r\n1 4 0\r\n")
    with pytest.raises(FormatError, match="^line 4: expected integers 'j A_j'$"):
        parse_enumerator("# a\n\t# b\n \n1 x\n", 3)
    with pytest.raises(FormatError, match="^line 3: expected 'n,k,d_lower,d_upper'$"):
        parse_bounds_table("# a\n  # b\n1,2,3\n")
    # Only \r\n, \r and \n end a line: a U+2028 in a comment and a form feed
    # in a row are whitespace within their lines, as in an editor.
    assert parse_matrix("3 1\r1 0 0\r") == parse_matrix("3 1\n1 0 0\n")
    assert parse_matrix("3 1\n# note\u2028more\n1 0 0\n") == parse_matrix("3 1\n1 0 0\n")
    assert parse_matrix("3 1\n1 0\x0c0\n") == parse_matrix("3 1\n1 0 0\n")
    bad = tmp_path / "bad.txt"
    bad.write_bytes("# note\u2028more\n2 1\n1\x0c4\n".encode())
    proc = run("check", str(bad))
    assert (proc.returncode, proc.stderr) == (3, "error: line 3: invalid digit '4'\n")


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_code_usage():
    assert run().returncode == 2
    assert run("check", "/no/such/file").returncode == 2


def test_exit_code_precondition():
    assert run("check", "-", stdin="2 5\n1 0\n").returncode == 3
    assert run("wenum", "catalog:no_such_entry").returncode == 3


def test_exit_code_budget():
    proc = run("wenum", "catalog:c13_6_a", "--max-dim", "2")
    assert proc.returncode == 4
    assert "budget" in proc.stderr


def test_exit_code_consistency():
    proc = run("macwilliams", "-", "--n", "1", "--k", "1", stdin="0 1\n1 1\n")
    assert proc.returncode == 5
    assert "error:" in proc.stderr


def test_outputs_are_deterministic():
    first = run("wenum", "catalog:c14_7")
    second = run("wenum", "catalog:c14_7")
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


# Header-only zero codes too long to hold: the first raises MemoryError where
# a length-n object is built, the second OverflowError.
HUGE_ZERO_CODE = "1000000000000000000 0\n"
HUGER_ZERO_CODE = "100000000000000000000 0\n"

# Malformed inputs for every verb: (test id, arguments, stdin, exit code).  A
# file argument "{binary}" is replaced by a file that is not UTF-8 text, and
# "{huge}" by a file holding HUGE_ZERO_CODE.  Each id is written out, so a
# new row never renumbers an existing one; test_malformed_ids_are_unique
# keeps them distinct.
MALFORMED = [
    ("check -0", ("check", "-"), "5\n", 3),
    ("check -1", ("check", "-"), "2 1\n1 4\n", 3),
    ("check {binary}", ("check", "{binary}"), None, 2),
    ("check /no/such/file", ("check", "/no/such/file"), None, 2),
    # Near misses of the layout emit_matrix writes, which the parser reads
    # all at once when it can.
    ("check - (tabs, bad digit)", ("check", "-"), "3 2\n1 0 1\n1\t4\t0\n", 3),
    ("check - (double spaces, short row)", ("check", "-"), "3 2\n1 0 1\n1  0\n", 3),
    ("check - (trailing spaces, short row)", ("check", "-"), "3 2\n1 0 1 \n1 0 \n", 3),
    ("check - (multi-digit token)", ("check", "-"), "3 2\n1 0 1\n1 0 11\n", 3),
    ("check - (non-digit at an even position)", ("check", "-"), "3 2\n1 0 1\n1 2 x\n", 3),
    ("check - (commas)", ("check", "-"), "3 2\n1 0 1\n1,0,1\n", 3),
    ("check - (multi-digit token at the row length)", ("check", "-"), "3 1\n101 1\n", 3),
    ("check - (crlf, short row)", ("check", "-"), "3 2\r\n1 0 1\r\n1 2\r\n", 3),
    ("check - (comments and blanks, bad digit)", ("check", "-"),
     "# c\n3 2\n\n1 0 1\n# c\n\n1 2 4\n", 3),
    ("check - (too few rows)", ("check", "-"), "3 2\n1 0 1\n", 3),
    ("check - (too many rows)", ("check", "-"), "3 1\n1 0 1\n1 0 1\n", 3),
    ("check - (huge header, short row)", ("check", "-"), f"{10 ** 20} 1\n1 0 1\n", 3),
    ("wenum catalog:c5_2 --partitions 0", ("wenum", "catalog:c5_2", "--partitions", "0"), None, 2),
    ("wenum catalog:c5_2 --partitions -3",
     ("wenum", "catalog:c5_2", "--partitions", "-3"), None, 2),
    ("wenum catalog:no_such_entry", ("wenum", "catalog:no_such_entry"), None, 3),
    ("wenum catalog:c13_6_a --max-dim 2", ("wenum", "catalog:c13_6_a", "--max-dim", "2"), None, 4),
    ("macwilliams - --n 3 --k -1", ("macwilliams", "-", "--n", "3", "--k", "-1"), "0 1\n", 2),
    ("macwilliams - --n -1 --k 1", ("macwilliams", "-", "--n", "-1", "--k", "1"), "0 1\n", 2),
    ("macwilliams - --n 3 --k 1", ("macwilliams", "-", "--n", "3", "--k", "1"), "x y\n", 3),
    ("macwilliams - --n 3 --k 5", ("macwilliams", "-", "--n", "3", "--k", "5"), "0 1\n", 5),
    ("macwilliams {binary} --n 3 --k 1",
     ("macwilliams", "{binary}", "--n", "3", "--k", "1"), None, 2),
    ("dual-distance -", ("dual-distance", "-"), "3 1\n1 2\n", 3),
    ("dual-distance - --max-dim 0",
     ("dual-distance", "-", "--max-dim", "0"), "5 2\n1 0 1 2 2\n0 1 2 2 1\n", 4),
    ("dual-distance - --max-dim 0 (zero column)",
     ("dual-distance", "-", "--max-dim", "0"), "3 1\n1 1 0\n", 4),
    ("quantum - --max-dim 0 (zero column)", ("quantum", "-", "--max-dim", "0"), "3 1\n1 1 0\n", 4),
    ("shorten catalog:c5_2 --at -1", ("shorten", "catalog:c5_2", "--at", "-1"), None, 3),
    ("shorten - --at 0", ("shorten", "-", "--at", "0"), "2 3\n", 3),
    ("circulant --first-row 12x --k 1", ("circulant", "--first-row", "12x", "--k", "1"), None, 3),
    ("circulant --first-row 123 --k 0", ("circulant", "--first-row", "123", "--k", "0"), None, 3),
    ("double --a catalog:c5_2 --b catalog:hexacode",
     ("double", "--a", "catalog:c5_2", "--b", "catalog:hexacode"), None, 3),
    ("double --a catalog:c5_2 --b catalog:c5_2 --x1 search:x",
     ("double", "--a", "catalog:c5_2", "--b", "catalog:c5_2", "--x1", "search:x"), None, 2),
    ("double --a catalog:c5_2 --b catalog:c5_2 --x1 {binary}",
     ("double", "--a", "catalog:c5_2", "--b", "catalog:c5_2", "--x1", "{binary}"), None, 2),
    ("quantum -", ("quantum", "-"), "2 2\n1 0\n0 1\n", 3),
    ("quantum catalog:c5_2 --bounds -", ("quantum", "catalog:c5_2", "--bounds", "-"), "a,b\n", 3),
    ("wenum catalog:c5_2 --max-dim -1", ("wenum", "catalog:c5_2", "--max-dim", "-1"), None, 2),
    ("dual-distance catalog:c5_2 --max-dim -1",
     ("dual-distance", "catalog:c5_2", "--max-dim", "-1"), None, 2),
    ("quantum catalog:c5_2 --max-dim -1", ("quantum", "catalog:c5_2", "--max-dim", "-1"), None, 2),
    ("double --a catalog:c5_2 --b catalog:c5_2 --max-dim -1",
     ("double", "--a", "catalog:c5_2", "--b", "catalog:c5_2", "--max-dim", "-1"), None, 2),
    ("catalog no_such_entry", ("catalog", "no_such_entry"), None, 3),
    ("wenum {huge}", ("wenum", "{huge}"), None, 4),
    ("quantum {huge}", ("quantum", "{huge}"), None, 4),
    ("dual-distance {huge}", ("dual-distance", "{huge}"), None, 4),
    ("double --a {huge} --b catalog:c5_2 --x1 allones",
     ("double", "--a", "{huge}", "--b", "catalog:c5_2", "--x1", "allones"), None, 4),
    ("wenum -", ("wenum", "-"), HUGER_ZERO_CODE, 4),
    ("double --a - --b catalog:c5_2 --x1 allones",
     ("double", "--a", "-", "--b", "catalog:c5_2", "--x1", "allones"), HUGER_ZERO_CODE, 4),
    ("macwilliams - --n 100000000000000000000 --k 0",
     ("macwilliams", "-", "--n", "100000000000000000000", "--k", "0"), "0 1\n", 4),
    ("macwilliams - --n 3 --k 100000000000000000000",
     ("macwilliams", "-", "--n", "3", "--k", "100000000000000000000"), "0 1\n", 4),
]


def test_malformed_ids_are_unique():
    # pytest would number repeated ids, renaming the tests that had them.
    ids = [row[0] for row in MALFORMED]
    assert len(set(ids)) == len(ids), sorted(i for i in ids if ids.count(i) > 1)


@pytest.mark.parametrize("args,stdin,code", [row[1:] for row in MALFORMED],
                         ids=[row[0] for row in MALFORMED])
def test_malformed_input_exits_with_documented_code(tmp_path, args, stdin, code):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"\xff\xfe\x00")
    huge = tmp_path / "huge.txt"
    huge.write_text(HUGE_ZERO_CODE)
    proc = run(*(a.replace("{binary}", str(binary)).replace("{huge}", str(huge))
                 for a in args), stdin=stdin)
    assert proc.returncode == code
    assert proc.returncode in (2, 3, 4, 5)
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("header", (HUGE_ZERO_CODE, HUGER_ZERO_CODE))
def test_check_on_a_huge_zero_code(header):
    # check builds nothing of length n, so the header alone is answered.
    proc = run("check", "-", stdin=header)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == (f"n: {header.split()[0]}\n"
                           "k: 0\n"
                           "hermitian_self_orthogonal: true\n"
                           "trace_self_orthogonal: true\n"
                           "even: true\n"
                           "self_dual: false\n")


def test_only_the_standard_library_is_imported():
    # -S keeps site-packages' start-up hooks out of the picture.  The second
    # line names the slow-to-import standard modules that CLI start-up must
    # not pull in: `dataclasses` brings the next four, and `typing` is the
    # largest single import left once they are gone.
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, gf4codes.cli\n"
         "print(sorted(m for m in sys.modules if m != '__main__'\n"
         "             and m.partition('.')[0] not in sys.stdlib_module_names\n"
         "             and m.partition('.')[0] != 'gf4codes'))\n"
         "print([m for m in ('dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'typing')\n"
         "       if m in sys.modules])"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"
