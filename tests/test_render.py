import pytest
from hypothesis import given, strategies as st

from agecurve.render import (
    bin_midpoint,
    format_table,
    read_csv,
    svg_line_chart,
    write_csv,
)


class TestCsvRoundTrip:
    def test_types_survive(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [["Germany", -0.11463, 15.35, None], ["Austria", 0.0005, 1.2, "yes"]]
        write_csv(path, ["country", "coef", "t", "flag"], rows)
        header, back = read_csv(path)
        assert header == ["country", "coef", "t", "flag"]
        assert back[0] == ["Germany", -0.11463, 15.35, None]
        assert back[1] == ["Austria", 0.0005, 1.2, "yes"]

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text('# generated table\n"a","b"\n1,2\n# trailing note\n3,4\n')
        header, rows = read_csv(path)
        assert header == ["a", "b"]
        assert rows == [[1.0, 2.0], [3.0, 4.0]]

    def test_deterministic_bytes(self, tmp_path):
        rows = [["x", 1.5], ["y", None]]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, ["k", "v"], rows)
        write_csv(b, ["k", "v"], rows)
        assert a.read_bytes() == b.read_bytes()

    @given(
        values=st.lists(
            st.one_of(
                st.none(),
                st.floats(-1e6, 1e6),
                st.text(
                    alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
                    min_size=1,
                ).filter(lambda s: s.strip() == s and not s.startswith("#")),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_round_trip_property(self, values, tmp_path_factory):
        path = tmp_path_factory.mktemp("csv") / "p.csv"
        write_csv(path, [f"c{i}" for i in range(len(values))], [values])
        _, (row,) = read_csv(path)
        for original, loaded in zip(values, row):
            if original is None:
                assert loaded is None
            elif isinstance(original, float):
                assert loaded == pytest.approx(original, nan_ok=True)
            else:
                # strings that merely look numeric come back as floats
                try:
                    float(original)
                except ValueError:
                    assert loaded == original


class TestFormatTable:
    def test_alignment_and_formats(self):
        text = format_table(
            ["country", "coef"],
            [["DE", -0.11463], ["FR", 0.5]],
            ["%s", "%.3f"],
        )
        lines = text.splitlines()
        assert lines[0].endswith("coef")
        assert lines[1] == "-------  ------"
        assert lines[2].endswith("-0.115")
        assert all(len(l) == len(lines[0]) for l in lines[1:])

    def test_none_renders_empty(self):
        text = format_table(["a"], [[None]])
        assert text.splitlines()[2].strip() == ""

    def test_format_count_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [], ["%g"])


class TestBinMidpoint:
    def test_closed_and_open(self):
        assert bin_midpoint("45-54") == 49.5
        assert bin_midpoint("15-24") == 19.5
        assert bin_midpoint("85+") == 90.0

    def test_orders_fine_scheme(self):
        from agecurve import scheme_bin_labels

        mids = [bin_midpoint(b) for b in scheme_bin_labels("fine")]
        assert mids == sorted(mids)


class TestSvgChart:
    def series(self):
        return [("DE", [(20, 7.2), (50, 6.8), (80, 7.1)]),
                ("FR", [(20, 6.9), (50, 6.5), (80, 7.0)])]

    def test_well_formed(self):
        svg = svg_line_chart(self.series(), title="levels by age")
        assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
        assert svg.count("<polyline") == 2
        assert "levels by age" in svg and ">DE<" in svg and ">FR<" in svg

    def test_deterministic(self):
        assert svg_line_chart(self.series()) == svg_line_chart(self.series())

    def test_fixed_scale_default_vs_autoscale(self):
        fixed = svg_line_chart(self.series())
        auto = svg_line_chart(self.series(), y_range=None)
        assert fixed != auto
        assert ">10<" in fixed  # full happiness scale drawn
        assert ">10<" not in auto  # tight range around the data

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            svg_line_chart([])
        with pytest.raises(ValueError):
            svg_line_chart([("DE", [])])

    def test_parses_as_xml(self):
        import xml.etree.ElementTree as ET

        root = ET.fromstring(svg_line_chart(self.series(), title="t"))
        assert root.tag.endswith("svg")

    def test_markup_characters_in_text_are_escaped(self):
        import xml.etree.ElementTree as ET

        names = ["A&B", "C<D", "E>F"]
        series = [(name, points) for name, (_, points) in zip(names, self.series() * 2)]
        root = ET.fromstring(svg_line_chart(series, title="A&B <by> age"))
        texts = [element.text for element in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[0] == "A&B <by> age" and texts[-3:] == names
