"""Storage layer: URI schemes, block splitting, partitioned writes,
min/max stats sidecars."""

import os

import pytest

from repro.spark.storage import (
    FileBlock,
    FileSystemRegistry,
    StorageError,
    file_excluded,
    list_input_files,
    load_stats,
    split_file,
    split_input,
    split_uri,
    write_partitioned_text,
    write_stats_sidecars,
    REGISTRY,
)


class TestUriHandling:
    def test_split_uri(self):
        assert split_uri("hdfs:///data/x.json") == ("hdfs", "/data/x.json")
        assert split_uri("s3://bucket/key") == ("s3", "/bucket/key")
        assert split_uri("/plain/path") == (None, "/plain/path")

    def test_mount_and_resolve(self, tmp_path):
        registry = FileSystemRegistry()
        registry.mount("hdfs", str(tmp_path))
        assert registry.resolve("hdfs:///a/b.json") == str(
            tmp_path / "a" / "b.json"
        )

    def test_plain_path_passthrough(self):
        registry = FileSystemRegistry()
        assert registry.resolve("/x/y") == "/x/y"
        assert registry.resolve("file:///x/y") == "/x/y"

    def test_unmounted_scheme_errors(self):
        registry = FileSystemRegistry()
        with pytest.raises(StorageError):
            registry.resolve("gs://bucket/x")

    def test_unmount(self, tmp_path):
        registry = FileSystemRegistry()
        registry.mount("s3", str(tmp_path))
        registry.unmount("s3")
        with pytest.raises(StorageError):
            registry.resolve("s3://x")


class TestBlockSplitting:
    def _write_lines(self, tmp_path, count: int, name="f.txt") -> str:
        path = str(tmp_path / name)
        with open(path, "w") as handle:
            for index in range(count):
                handle.write("line-{:04d}\n".format(index))
        return path

    def test_single_block_for_small_file(self, tmp_path):
        path = self._write_lines(tmp_path, 10)
        blocks = split_file(path)
        assert len(blocks) == 1
        assert list(blocks[0].read_lines()) == [
            "line-{:04d}".format(i) for i in range(10)
        ]

    def test_blocks_partition_lines_exactly(self, tmp_path):
        """Every line is read exactly once regardless of block boundaries
        — the Hadoop input-split invariant."""
        path = self._write_lines(tmp_path, 100)
        for block_size in (7, 64, 128, 1000, 5000):
            blocks = split_file(path, block_size=block_size)
            lines = [
                line for block in blocks for line in block.read_lines()
            ]
            assert lines == [
                "line-{:04d}".format(i) for i in range(100)
            ], "block size {}".format(block_size)

    def test_min_partitions_honoured(self, tmp_path):
        path = self._write_lines(tmp_path, 100)
        blocks = split_file(path, min_partitions=8)
        assert len(blocks) >= 8

    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.txt")
        open(path, "w").close()
        blocks = split_file(path)
        assert len(blocks) == 1
        assert list(blocks[0].read_lines()) == []

    def test_missing_file(self):
        with pytest.raises(StorageError):
            split_file("/no/such/file")

    def test_blank_lines_skipped(self, tmp_path):
        path = str(tmp_path / "gaps.txt")
        with open(path, "w") as handle:
            handle.write("a\n\nb\n   \nc\n")
        blocks = split_file(path)
        lines = [line for b in blocks for line in b.read_lines()]
        assert lines == ["a", "b", "   ", "c"]

    def test_file_block_is_value_object(self):
        assert FileBlock("p", 0, 10) == FileBlock("p", 0, 10)


class TestDirectories:
    def test_list_input_files_skips_markers(self, tmp_path):
        directory = tmp_path / "col"
        directory.mkdir()
        (directory / "part-00000").write_text("x\n")
        (directory / "part-00001").write_text("y\n")
        (directory / "_SUCCESS").write_text("")
        (directory / ".hidden").write_text("z\n")
        files = list_input_files(str(directory))
        assert [os.path.basename(f) for f in files] == [
            "part-00000", "part-00001",
        ]

    def test_split_input_over_directory(self, tmp_path):
        directory = tmp_path / "col"
        directory.mkdir()
        (directory / "part-00000").write_text("a\nb\n")
        (directory / "part-00001").write_text("c\n")
        blocks = split_input(str(directory))
        lines = sorted(
            line for block in blocks for line in block.read_lines()
        )
        assert lines == ["a", "b", "c"]


class TestPartitionedWrite:
    def test_write_creates_parts_and_success(self, tmp_path):
        target = str(tmp_path / "out")
        files = write_partitioned_text(
            target, [["a", "b"], ["c"]]
        )
        assert len(files) == 2
        assert os.path.exists(os.path.join(target, "_SUCCESS"))
        assert open(files[0]).read() == "a\nb\n"
        assert open(files[1]).read() == "c\n"

    def test_write_read_round_trip(self, tmp_path):
        target = str(tmp_path / "out")
        write_partitioned_text(target, [["1"], ["2"], ["3"]])
        blocks = split_input(target)
        lines = sorted(
            line for block in blocks for line in block.read_lines()
        )
        assert lines == ["1", "2", "3"]

    def test_global_registry_mount(self, tmp_path):
        REGISTRY.mount("testfs", str(tmp_path))
        try:
            write_partitioned_text("testfs:///sub", [["row"]])
            assert os.path.exists(tmp_path / "sub" / "part-00000")
        finally:
            REGISTRY.unmount("testfs")


class TestRangePruning:
    """A sidecar excludes a file only when the comparison rule makes the
    predicate false on every record of it."""

    @staticmethod
    def stats_of(tmp_path, lines):
        path = tmp_path / "data.json"
        path.write_text("".join(line + "\n" for line in lines))
        write_stats_sidecars(str(path))
        return str(path), load_stats(str(path))

    def test_exact_ranges_still_exclude(self, tmp_path):
        _, stats = self.stats_of(tmp_path, ['{"x":1}', '{"x":3}'])
        assert file_excluded(stats, [("x", "eq", 7)])
        assert file_excluded(stats, [("x", "eq", 7.0)])
        assert file_excluded(stats, [("x", "gt", 3)])
        assert not file_excluded(stats, [("x", "ge", 3)])
        assert file_excluded(stats, [("missing", "eq", 1)])

    def test_int_range_compares_with_a_double_as_doubles(self, tmp_path):
        big = 2 ** 53 + 1
        _, stats = self.stats_of(tmp_path, ['{{"x":{}}}'.format(big)])
        # float(2**53 + 1) == 2**53: the reference finds them equal.
        assert not file_excluded(stats, [("x", "eq", float(2 ** 53))])
        assert not file_excluded(stats, [("x", "le", float(2 ** 53))])
        assert file_excluded(stats, [("x", "lt", 2 ** 53 - 1)])
        # The sidecar does not say whether the key holds doubles, so a
        # range must be disproved as doubles too, even for an int.
        assert not file_excluded(stats, [("x", "eq", 2 ** 53)])

    def test_an_int_too_big_for_a_double_never_excludes(self, tmp_path):
        _, stats = self.stats_of(tmp_path, ['{"x":1}'])
        assert not file_excluded(stats, [("x", "eq", 10 ** 400)])

    @pytest.mark.parametrize("lines", [
        ['{"x":5}', '{"x":NaN}'],
        ['{"x":NaN}', '{"x":5}'],
    ])
    def test_nan_leaves_no_range(self, tmp_path, lines):
        _, stats = self.stats_of(tmp_path, lines)
        assert "min" not in stats["keys"]["x"]
        # NaN ne 5 is true: the file must be read.
        assert not file_excluded(stats, [("x", "ne", 5)])

    @pytest.mark.parametrize("query, expected", [
        ('count(for $i in json-file("{}") where $i.x eq 9007199254740992e0 '
         'return $i)', [1]),
        ('count(for $i in json-file("{}") where $i.x ne 5 return $i)', [1]),
    ])
    def test_pruned_scans_answer_like_the_reference(self, tmp_path, query,
                                                    expected):
        from repro.core import make_engine

        lines = (['{"x":9007199254740993}'] if "e0" in query
                 else ['{"x":5}', '{"x":NaN}'])
        path, _ = self.stats_of(tmp_path, lines)
        for pushdown in (False, True):
            engine = make_engine(executors=1, parallelism=1,
                                 pushdown=pushdown)
            assert engine.query(query.format(path)).to_python() == expected

    def test_only_the_leading_predicate_may_exclude(self, tmp_path):
        """``y eq "z"`` is false on the whole file, but the reference
        raises on ``x eq 1`` first: pruning the file would hide it."""
        from repro.core import make_engine
        from repro.jsoniq.errors import TypeException

        path, stats = self.stats_of(tmp_path, ['{"x":"a","y":"w"}'])
        assert file_excluded(stats, [("y", "eq", "z")])
        query = ('count(for $i in json-file("{}") where $i.x eq 1 '
                 'where $i.y eq "z" return $i)').format(path)
        for pushdown in (False, True):
            engine = make_engine(executors=1, parallelism=1,
                                 pushdown=pushdown)
            with pytest.raises(TypeException):
                engine.query(query).to_python()
