import pytest

from iockit.errors import MalformedLineError, MissingFileError, read_lines


def test_yields_unstripped_lines_that_are_neither_blank_nor_comments(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes(b"# header\r\n  a\tb \r\n\n \t\n  # indented comment\nc#d\x0be\n")
    assert list(read_lines(path)) == [(2, "  a\tb "), (6, "c#d"), (7, "e")]


@pytest.mark.parametrize(
    "data,line_no",
    [
        (b"\xff", 1),
        (b"ok\n\xe9", 2),
        (b"ok\r\n# comment\r\nbad \xc3(\n", 3),
        (b"ok\rn\xc3", 2),
        (b"ok\x0b\xff", 2),
        (b"ok\r\xff", 2),
    ],
)
def test_undecodable_line_is_located(tmp_path, data, line_no):
    path = tmp_path / "lines.txt"
    path.write_bytes(data)
    with pytest.raises(MalformedLineError) as err:
        list(read_lines(path))
    assert (err.value.path, err.value.line_no) == (str(path), line_no)
    assert str(err.value) == f"{path}:{line_no}: not UTF-8"


@pytest.mark.parametrize("name", ["absent.txt", "."])
def test_missing_file(tmp_path, name):
    with pytest.raises(MissingFileError) as err:
        list(read_lines(tmp_path / name))
    assert str(err.value) == f"{tmp_path / name}: missing file"
