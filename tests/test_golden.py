import pytest

from golden_reports import GOLDEN_DIR, check_all, main


def test_reports_match_the_golden_files(tmp_path, capsys):
    # the zoo commands and the seed-200 torus analyze against tests/golden
    errors = check_all(tmp_path)
    assert not errors, capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--record"], ["--record", "analyze-torus-m1", "no-such-report"]])
def test_record_takes_known_names_only(argv):
    # a bare --record would re-record every file, absorbing rounding moves
    # unseen; an unknown name records nothing
    before = {file: file.read_bytes() for file in GOLDEN_DIR.glob("*.json")}
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert before == {file: file.read_bytes() for file in GOLDEN_DIR.glob("*.json")}
