"""The C step kernel's build: engine._load compiles _kernel.c once into the __pycache__ beside it,
names the file by the source's crc32, and gives None, so that step runs per cell,
wherever it cannot build. Each test loads a copy of the source under tmp_path."""

import hashlib
import shutil
import subprocess
import sysconfig
import zlib
from pathlib import Path

import pytest

from faultsim import engine
from faultsim.cli import main
from oracles import NO_C
from test_golden import CASES, case_args

SOURCE = Path(engine.__file__).with_name("_kernel.c")


@pytest.fixture
def source(tmp_path):
    """A copy of the kernel's source in a directory of its own."""
    copy = tmp_path / "_kernel.c"
    shutil.copyfile(SOURCE, copy)
    return copy


def files_under(path: Path) -> list[Path]:
    return sorted(p for p in path.rglob("*") if p.is_file())


def built(source: Path) -> list[Path]:
    """The files a build of source left in its cache."""
    return files_under(source.parent / "__pycache__")


def test_a_second_load_reuses_the_cached_file(source, monkeypatch):
    if engine._C is None:
        pytest.skip(NO_C)
    first = engine._load(str(source))
    assert first is not None
    (path,) = built(source)
    assert path.name.startswith(f"_kernel.{zlib.crc32(source.read_bytes()):08x}.")
    compiles = []
    monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: compiles.append(args))
    second = engine._load(str(source))
    assert second is not None and compiles == [] and built(source) == [path]
    # the loaded module steps a map as the package's own does
    maps = [bytearray(range(200)) for _ in range(3)]
    results = [kernel.step(cells, bytes(200), bytearray(200), 7, -5, 11, 0, 11, 100)
               for kernel, cells in zip((first, second, engine._C), maps)]
    assert results[0] == results[1] == results[2] and maps[0] == maps[1] == maps[2]


def test_an_edited_source_gets_a_new_file(source):
    if engine._C is None:
        pytest.skip(NO_C)
    assert engine._load(str(source)) is not None
    (old,) = built(source)
    source.write_bytes(source.read_bytes() + b"/* edited */\n")
    assert engine._load(str(source)) is not None
    new = next(p for p in built(source) if p != old)
    assert built(source) == sorted([old, new])
    assert new.name == f"_kernel.{zlib.crc32(source.read_bytes()):08x}" + old.name[len("_kernel.12345678"):]


def test_a_missing_compiler_falls_back_to_python(source, monkeypatch, capsys):
    get = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: "no-such-compiler-here -shared" if name == "LDSHARED" else get(name))
    assert engine._load(str(source)) is None
    assert files_under(source.parent) == [source]  # no module and no half-built file
    monkeypatch.setattr(engine, "_C", None)
    name = "uneven-blocks"
    _, digest, length, code, err = CASES[name]
    assert main(case_args(source.parent, name)) == code
    out, captured_err = capsys.readouterr()
    assert (hashlib.sha256(out.encode()).hexdigest(), len(out)) == (digest, length)
    assert captured_err == err
