"""Tests for repro.utils.text."""

from repro.utils.text import count_loc, dedent_code, safe_identifier


def test_dedent_code_strips_common_indent_and_leading_blank():
    code = """
        def f():
            return 1
    """
    result = dedent_code(code)
    assert result.startswith("def f():")
    assert "    return 1" in result


def test_count_loc_ignores_comments_and_blanks():
    source = "# comment\n\nx = 1\n   # another\ny = 2\n"
    assert count_loc(source) == 2


def test_safe_identifier_sanitises():
    assert safe_identifier("my-package.name") == "my_package_name"
    assert safe_identifier("1abc").startswith("_")
    assert safe_identifier("") == "_"
