"""The numeric digests of ``scripts/numeric_digest.py``, pinned per BLAS kernel.

Every family is small enough to pin: together they run in about 1.5 s on
a 2-vCPU Xeon.  The script runs in its own process, so that BLAS starts
on the one thread the script asks for whatever the test process set up.
A change that moves a digest moves numbers: it says which family moved
and why, and takes the new pins.

The bytes follow the order of a product's operations, which the BLAS
kernel chooses, so the pins are keyed by the kernel the script names on
stderr.  Pins of another kernel are taken on the same host by setting
``OPENBLAS_CORETYPE`` in the script's process alone, for example::

    OPENBLAS_CORETYPE=Haswell python3 scripts/numeric_digest.py

On a kernel with no pin, the values are compared with ``--compare``
against the committed dump in ``numeric_values/``, SkylakeX's, at
:data:`BOUND` of each family's scale, and a failure names the kernel.
"""

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
#: most 7.1e-15 of a family's scale; a change of the code that moves
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
    mult32 430d7004f90b973a0b1ad74b5d331598a99bb9463247d2cde76daaa1da61604f
    mult16x8 c3000b49221c33f3600030769995b6c8ef7d636d2483a50e2618b9d1bf176781
    mult8x16 e09f3d476608153b3a3fb51ca23546bc01a3e4c524da64627833844bafac16ea
    mult64 f280a03f06dcabd9aff826a49bfe451689a51bf8ca35d0e55bb88864b17d1250
    add8 e515f9c67d571cb3230b44b8852bf8c0eb1cda2fe6fade336c04c91afb5db583
    add8x4 68b51f33c3bab8374b949a1a14684546940f6800c338d60a0baf826b62b7d804
    add4x8 47dd5276ebd5f1cddd2d472ff698b024bc02b7354b717369a6d6085fdc9ac751
    order_shape f5c3e4f6811846f1d886f8fe14035336f0014791e1146a2169e5b5ea24e3e817
    variance_shape dd191cab5360d005ba3160a90eff258737aa7df2143f873e858fc27dc398a4d0
    report-heat-mult-False-json 8bb9e78c1f682a3ad2f1cda8b132ca2d95d013ba3d4c3906c09126f7aba31191
    report-heat-mult-False-csv bac3e4c6caaff73ff34a9ec70e025ee47799a0fe9230a0da808b643378ccf18a
    report-heat-mult-True-json 2c94538cfc3a55a087e525150d0044d10da31f37f9746afb1c57dc817a7def4d
    report-heat-mult-True-csv 7c29f696262a48875708d63ce75dcdac5a8f6ef0ac1096ae4eb934460846fd47
    report-heat-add-False-json c7140dfa7705335d3de25a281c09179d8b36f2e57c0c490377b88674ed224cd8
    report-heat-add-False-csv dc6c96b14a6a9faf708d3a922b3e45c99ddaa5aa453f8ac3d91c25249f00184c
    report-heat-add-True-json a800eb0bc77360c8c2a09fbae3e251ad8737f1dd59dd23ebbecac0fb73349e1d
    report-heat-add-True-csv 2d09be17c9655efb1e930287945ad4200a0aafdc0be695ac884612952ae4c410
    """),
    "Haswell": pins("""
    mult32 5de73186d763995e077144422322b3b3f91886b0a2f5b8f62c13f1c9e95934f7
    mult16x8 b4191856d9c6319e7068e1fdab39de356953dde11f98f2083ed3c80784092191
    mult8x16 6ca1ddee7e22bcdfb0b78c08279d6c6d7275cc44d52354a2b50eca19dfd248ef
    mult64 cfdf7b7e0973fbee7e847f16610d226875923789125cab11cae46493be9249ff
    add8 e515f9c67d571cb3230b44b8852bf8c0eb1cda2fe6fade336c04c91afb5db583
    add8x4 68b51f33c3bab8374b949a1a14684546940f6800c338d60a0baf826b62b7d804
    add4x8 47dd5276ebd5f1cddd2d472ff698b024bc02b7354b717369a6d6085fdc9ac751
    order_shape 3e3b93b06acc7480a7cc3689d0cfa0b6308832943f699b58c6cc6e2215c18446
    variance_shape dd191cab5360d005ba3160a90eff258737aa7df2143f873e858fc27dc398a4d0
    report-heat-mult-False-json 6af0be8b4f3f30cd19b824d354c67e4c493a5f193fa1c7e81d0f64c0dc762fc5
    report-heat-mult-False-csv 322c5c169503768294b2ac54bdd5771d2880a5dced85b523778339e6666e6eb0
    report-heat-mult-True-json 46878f66fcd0f7ee1b3431e6a30978636c00bc2b144a83b2c5f8e5bbe015de4b
    report-heat-mult-True-csv 45efe0e6115f96cdbb5405c1e97ada101cfc79c8423ce6233563f2ce0e31926e
    report-heat-add-False-json 30701b77c406de34e15949d1a7843bdac965ad5d0f858c6b765485e1f25be8b2
    report-heat-add-False-csv dc6c96b14a6a9faf708d3a922b3e45c99ddaa5aa453f8ac3d91c25249f00184c
    report-heat-add-True-json e1c495054db92783c32e9882aca6d64a6177b031fbca7a06354c31c8b8411d30
    report-heat-add-True-csv 2d09be17c9655efb1e930287945ad4200a0aafdc0be695ac884612952ae4c410
    """),
    "Sandybridge": pins("""
    mult32 b150db4a72e051d4257c4e3ac990bb2ffe01dba20812d97945c8bdf20dc4ed7b
    mult16x8 460902a1a46de6541fb2a0f6a37e0605051544cffd679a5073d35aac72f66f09
    mult8x16 b369a50076d51880736ebe403a2a20dce8483e312745f89e2ca3749d41135b85
    mult64 b07248f2f3266bc59e0a1124f364f912798f51bd2e4d3263e43dc197a99214a7
    add8 e515f9c67d571cb3230b44b8852bf8c0eb1cda2fe6fade336c04c91afb5db583
    add8x4 68b51f33c3bab8374b949a1a14684546940f6800c338d60a0baf826b62b7d804
    add4x8 47dd5276ebd5f1cddd2d472ff698b024bc02b7354b717369a6d6085fdc9ac751
    order_shape 0c109070b896a9c59f4f3f599f05687f0cab7141165ba20a57fbdcb43d499638
    variance_shape dd191cab5360d005ba3160a90eff258737aa7df2143f873e858fc27dc398a4d0
    report-heat-mult-False-json 1c7fe946241318cf8ec73b22e1da8b112f894e1409d8c42c7e36920724521788
    report-heat-mult-False-csv 4132a0d53b258595e90cee0ffa2b1475b1de69909015feeeae3b71163cf45278
    report-heat-mult-True-json 2c4f0798b3cb28a07529fb0d658a63bce934a8bcb6192588db5c9849f04ca705
    report-heat-mult-True-csv abfa11d58d5e2ca7d69b8cb4ea564690d7052e709722fee02c887b7354305c22
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
