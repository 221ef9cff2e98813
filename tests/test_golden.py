from golden_reports import check_all


def test_reports_match_the_golden_files(tmp_path, capsys):
    # the zoo commands and the seed-200 torus analyze against tests/golden
    errors = check_all(tmp_path)
    assert not errors, capsys.readouterr().out
