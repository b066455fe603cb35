"""The numeric digests of ``scripts/numeric_digest.py``, pinned per BLAS kernel.

Every family is small enough to pin: together they run in about 1.5 s on
a 2-vCPU Xeon.  The script runs in its own process, so that BLAS starts
on the one thread the script asks for whatever the test process set up.
A change that moves a digest moves numbers: it says which family moved
and why, and takes the new pins.

The bytes follow the order of a product's operations, which the BLAS
kernel chooses, so the pins are keyed by the kernel the script names on
stderr.  Pins of another kernel are taken, and checked, on the same host
by setting ``OPENBLAS_CORETYPE`` in the script's process alone, for
example::

    OPENBLAS_CORETYPE=Haswell python3 scripts/numeric_digest.py

So a host that runs every pinned kernel (an AVX-512 one runs all three)
checks every pin.

On a kernel with no pin, the values are compared with ``--compare``
against the committed dump in ``numeric_values/``, SkylakeX's, at
:data:`BOUND` of each family's scale, and a failure names the kernel.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "numeric_digest.py"

#: Each family's values on SkylakeX, as ``--values`` writes them.
VALUES = Path(__file__).resolve().parent / "numeric_values"

#: The largest change of a family's values from :data:`VALUES`, relative
#: to the family's scale (``--compare``'s second number), that a kernel
#: with no pin may show.  The pinned kernels differ from SkylakeX by at
#: most 7.0e-15 of a family's scale; a change of the code that moves
#: numbers moves them by far more than rounding.
BOUND = 1e-12


def pins(text: str) -> dict[str, str]:
    """The digests of ``text``, lines as the script prints them."""
    return dict(line.split() for line in text.strip().splitlines())


# Digests by BLAS kernel.  The add*, variance_shape and heat-add CSV
# digests are the same on all three: the heat-add states are elementwise
# arithmetic and einsums, which run on no BLAS kernel, though the slope fit
# in a report's JSON does.  The JSON also holds the package and numpy
# versions, so its digests move with either.
PINNED = {
    "SkylakeX": pins("""
    mult32 79f32b9928b5cf4b2b222b37ffe2b123e3514ff1a81fcfc635bef5823b2f4829
    mult16x8 081f5fda0f50204109c57cad242556aa683688ffb78253b1473b8dd34be143d3
    mult8x16 a98fe91d528fca7349939b74db065cf3914bb935ad27d80b66d56d68395787dd
    mult64 a76038324cb49c915376b72b7db356419690cdb219f76e89c89e0d03aaf85029
    add8 e515f9c67d571cb3230b44b8852bf8c0eb1cda2fe6fade336c04c91afb5db583
    add8x4 68b51f33c3bab8374b949a1a14684546940f6800c338d60a0baf826b62b7d804
    add4x8 47dd5276ebd5f1cddd2d472ff698b024bc02b7354b717369a6d6085fdc9ac751
    order_shape 4e2fe74af9d3808810c51a07546cd63eef0ca018e8bb7edbb4b638af880a2bd4
    variance_shape dd191cab5360d005ba3160a90eff258737aa7df2143f873e858fc27dc398a4d0
    report-heat-mult-False-json 915cb0317098d9d12b2a0177066e72f7024f75c799b603435f06b8e2e447061b
    report-heat-mult-False-csv ec1b2cbccd3f32dc836c7294c4c2a637d8d792f116b816ec0644c5de3aa61eb2
    report-heat-mult-True-json ebf4752956f088f84b2dc404c1ea45aae58af1e761a7592ecb9b1755175830fe
    report-heat-mult-True-csv 54442ed08c647eefa62cbc331209bc4640c6fb3d8aad5cb7d02ce6a48913d23a
    report-heat-add-False-json c7140dfa7705335d3de25a281c09179d8b36f2e57c0c490377b88674ed224cd8
    report-heat-add-False-csv dc6c96b14a6a9faf708d3a922b3e45c99ddaa5aa453f8ac3d91c25249f00184c
    report-heat-add-True-json a800eb0bc77360c8c2a09fbae3e251ad8737f1dd59dd23ebbecac0fb73349e1d
    report-heat-add-True-csv 2d09be17c9655efb1e930287945ad4200a0aafdc0be695ac884612952ae4c410
    """),
    "Haswell": pins("""
    mult32 968904020a55b59b88cb12ffce65401ab9ec79f8ce6e569fbfd39784751f4c55
    mult16x8 2fd606dadb76fc69680ae6867387e94c956596581cec541bd841cd01fcb97d4c
    mult8x16 33ce53f2c36e19549ce8fa6b74be0b1ff3d207274ccd87c0dd9811ee5e477cd9
    mult64 e6c9935303df8d9596cf1ac53cfd9165e04392e20adbf1192a92d6b9e2a32723
    add8 e515f9c67d571cb3230b44b8852bf8c0eb1cda2fe6fade336c04c91afb5db583
    add8x4 68b51f33c3bab8374b949a1a14684546940f6800c338d60a0baf826b62b7d804
    add4x8 47dd5276ebd5f1cddd2d472ff698b024bc02b7354b717369a6d6085fdc9ac751
    order_shape 3064cf2f9875b3ef3ac36926245c1884fb439c5101edeea502d8b0ad3ccd3237
    variance_shape dd191cab5360d005ba3160a90eff258737aa7df2143f873e858fc27dc398a4d0
    report-heat-mult-False-json 322db3f6091299cade76a6495b3d554f60bb29a678dd95a37b98114248bc3634
    report-heat-mult-False-csv 7dcc8190fbeade34845e0b4c21a0570b41b658021af16ada3fcecfa1744e80c8
    report-heat-mult-True-json c889fc4e7c5949bab100c49978f431ed222f424a30ebb16bda447673875c61ba
    report-heat-mult-True-csv 6cbafa99adc7b9ae230545232ad4169e6fa60c50ce19dd1c17b530f129982481
    report-heat-add-False-json 30701b77c406de34e15949d1a7843bdac965ad5d0f858c6b765485e1f25be8b2
    report-heat-add-False-csv dc6c96b14a6a9faf708d3a922b3e45c99ddaa5aa453f8ac3d91c25249f00184c
    report-heat-add-True-json e1c495054db92783c32e9882aca6d64a6177b031fbca7a06354c31c8b8411d30
    report-heat-add-True-csv 2d09be17c9655efb1e930287945ad4200a0aafdc0be695ac884612952ae4c410
    """),
    "Sandybridge": pins("""
    mult32 124696c2b22b8d8a8278f04d3c928d3f45e442de2767808e7b45f391e6852752
    mult16x8 d6972e20e23c338fe1850139320fcead551a8470f8799f31ea9de0b60ed13efe
    mult8x16 82b95580915802b3d761f8970e80beafbed090845b6495bf9c589990012cb575
    mult64 a1297c6ddbacd21d79702aa9034c99781dfd427c7f8adc18820f04e199e48964
    add8 e515f9c67d571cb3230b44b8852bf8c0eb1cda2fe6fade336c04c91afb5db583
    add8x4 68b51f33c3bab8374b949a1a14684546940f6800c338d60a0baf826b62b7d804
    add4x8 47dd5276ebd5f1cddd2d472ff698b024bc02b7354b717369a6d6085fdc9ac751
    order_shape def9c2608a753b45b4f978fbd8dc099eaa7b3f444ea57f40ae9f210dd0a8a5f7
    variance_shape dd191cab5360d005ba3160a90eff258737aa7df2143f873e858fc27dc398a4d0
    report-heat-mult-False-json 6a52c603fd8d778f479558a4d7c8d56f7343e1acb28cd50fe6a7afc4b3f96f90
    report-heat-mult-False-csv 6bc28e10ee427454f81a1294a3a641a150b6033ab82110a9622135f9648ab465
    report-heat-mult-True-json 7df20b1901cd5385a2cfc6ed7c99dc6732acb16f0cd5db2910c5a47edf84fc31
    report-heat-mult-True-csv 3596a60e94b0f4eb8d0131b28cac2e5b7877e2d37c162f8ccf9041a008527444
    report-heat-add-False-json a07606d91a7c9c80ae39ec59b07ad1500d72a0dbaa19b6c9f8f3cc40b69c1b0c
    report-heat-add-False-csv dc6c96b14a6a9faf708d3a922b3e45c99ddaa5aa453f8ac3d91c25249f00184c
    report-heat-add-True-json ad2a427009a43fc5a70623134a8cf1d8f8aae52bbc8dce56693f0c69c09b6d30
    report-heat-add-True-csv 2d09be17c9655efb1e930287945ad4200a0aafdc0be695ac884612952ae4c410
    """),
}


@pytest.fixture(scope="module")
def dump(tmp_path_factory):
    """The script's stdout, with every family's values written to a
    directory, that directory and the script's stderr."""
    values = tmp_path_factory.mktemp("values")
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--values", str(values)],
        capture_output=True, text=True, check=True,
    )
    return run.stdout, values, run.stderr


def changes(stdout: str) -> dict[str, list[str]]:
    """``--compare``'s lines: each family's change relative to each value
    and to the family's scale."""
    return {name: rest for name, *rest in (line.split() for line in stdout.splitlines())}


def past_bound(before: Path, after: Path) -> list[str]:
    """The lines of ``--compare before after`` whose family moved by more
    than :data:`BOUND` of its scale, is missing from ``after`` or changed
    its count of values."""
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--compare", str(before), str(after)],
        capture_output=True, text=True,
    )
    lines = [line.split() for line in run.stdout.splitlines()]
    return [" ".join(line) for line in lines if len(line) != 3 or float(line[2]) > BOUND]


def test_every_family_is_pinned(dump):
    stdout, values, stderr = dump
    kernel = re.fullmatch(r"blas kernel: (\w+)\n", stderr)[1]
    digests = dict(line.split() for line in stdout.splitlines())
    families = {path.stem for path in values.glob("*.npy")}
    assert {path.stem for path in VALUES.glob("*.npy")} == families
    assert past_bound(VALUES, values) == [], f"BLAS kernel {kernel}"
    if kernel in PINNED:
        assert digests == PINNED[kernel]
    else:
        assert digests.keys() == PINNED["SkylakeX"].keys(), f"BLAS kernel {kernel}"


@pytest.mark.parametrize("kernel", sorted(PINNED))
def test_every_pinned_kernel_the_host_runs_keeps_its_pins(kernel, dump):
    # The host's own kernel is the dump's; any other runs in a child with
    # OPENBLAS_CORETYPE set for it alone.  A host that cannot run the
    # kernel falls back to another, which the script names, or dies of
    # an illegal instruction.
    stdout, _, stderr = dump
    if stderr != f"blas kernel: {kernel}\n":
        run = subprocess.run(
            [sys.executable, str(SCRIPT)], capture_output=True, text=True,
            env={**os.environ, "OPENBLAS_CORETYPE": kernel},
        )
        assert run.returncode <= 0, run.stderr
        if run.returncode < 0 or run.stderr != f"blas kernel: {kernel}\n":
            pytest.skip(f"this host does not run the {kernel} kernel")
        stdout = run.stdout
    assert pins(stdout) == PINNED[kernel]


def test_the_blas_kernel_is_named_on_stderr(dump):
    # The pins hold on one kernel; the line says which one a run used.
    _, _, stderr = dump
    assert re.fullmatch(r"blas kernel: \w+\n", stderr)


def test_a_dump_compared_with_itself_changes_by_zero(dump):
    _, values, _ = dump
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--compare", str(values), str(values)],
        capture_output=True, text=True, check=True,
    )
    families = {name.rsplit("-", 1)[0] if name.startswith("report") else name
                for name in PINNED["SkylakeX"]}
    assert changes(run.stdout) == dict.fromkeys(families, ["0", "0"])


def test_a_value_moved_by_one_ulp_fails_the_compare(dump, tmp_path):
    # Every line is still printed; the exit status says that one moved.
    _, values, _ = dump
    moved = tmp_path / "moved"
    shutil.copytree(values, moved)
    family = np.load(moved / "mult32.npy")
    family[0] = np.nextafter(family[0], np.inf)
    np.save(moved / "mult32.npy", family)
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--compare", str(values), str(moved)],
        capture_output=True, text=True,
    )
    assert run.returncode == 1
    moved = changes(run.stdout)
    per_value, scaled = (float(x) for x in moved.pop("mult32"))
    assert 0.0 < scaled <= per_value < 1e-15
    assert all(change == ["0", "0"] for change in moved.values())


@pytest.mark.parametrize("factor, failed", [(0.5, []), (2.0, ["mult32"])])
def test_the_unpinned_check_fails_past_its_bound(factor, failed, tmp_path):
    # A value moved by half the bound of its family's scale passes the
    # check of an unpinned kernel; one moved by twice the bound fails it.
    moved = tmp_path / "moved"
    shutil.copytree(VALUES, moved)
    family = np.load(moved / "mult32.npy")
    family[7] += factor * BOUND * np.abs(family).max()
    np.save(moved / "mult32.npy", family)
    assert [line.split()[0] for line in past_bound(VALUES, moved)] == failed


def test_two_blas_threads_stay_within_the_bound_of_the_dump(tmp_path):
    # The thread count is checked as an unpinned kernel is: BLAS products
    # can round differently on two threads, by far less than BOUND of a
    # family's scale.
    values = tmp_path / "two"
    subprocess.run(
        [sys.executable, str(SCRIPT), "--threads", "2", "--values", str(values)],
        capture_output=True, text=True, check=True,
    )
    assert {path.stem for path in values.glob("*.npy")} == {
        path.stem for path in VALUES.glob("*.npy")
    }
    assert past_bound(VALUES, values) == []
