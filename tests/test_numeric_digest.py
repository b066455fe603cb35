"""The numeric digests of ``scripts/numeric_digest.py``, pinned.

Every family is small enough to pin: together they run in about 1.5 s on
a 2-vCPU Xeon.  The script runs in its own process, so that BLAS starts
on the one thread the script asks for whatever the test process set up.
A change that moves a digest moves numbers: it says which family moved
and why, and takes the new pin.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "numeric_digest.py"

# Every pin but variance_shape was retaken when a step came to start from
# the semigroup product e^{-lambda h} u0 instead of u0 + (e^{-lambda h} - 1) u0,
# and the one-row multiplication sum to fold its weight column into the
# interpolant: ``--compare`` put each family's largest change at most 7e-15
# of its scale.  variance_shape steps from zero, where the two give zero.
PINNED = {
    "mult32": "cfae8d92a3464824f0c247ae1fc211e63a6862ad6a34a95cd45d9ea348d27345",
    "mult16x8": "baad9ee95bb500a45a04bbeb5392958a1137a37cfb54bf52ba07dff1ac1454e3",
    "mult8x16": "00a3c425e482b3c42a86aebaa1fb111bb3e2b399859764164f8bcac35cd656b3",
    "mult64": "be00a4716a77abd05c122c1fe8ec45ec2cc44507a8f42947c72a81e8b9390a7d",
    "add8": "e515f9c67d571cb3230b44b8852bf8c0eb1cda2fe6fade336c04c91afb5db583",
    "add8x4": "68b51f33c3bab8374b949a1a14684546940f6800c338d60a0baf826b62b7d804",
    "add4x8": "47dd5276ebd5f1cddd2d472ff698b024bc02b7354b717369a6d6085fdc9ac751",
    # Criterion 3's shape, as the order study's benchmark op builds it, and
    # criterion 4's, the variance op's: the end states at the arithmetic of
    # the rows reduced by an einsum, which the fused diagonal sum keeps.
    "order_shape": "a14147a49684fa30a9a3d9be12eb94d7670339c172c185f6a42d661773c2cb24",
    "variance_shape": "dd191cab5360d005ba3160a90eff258737aa7df2143f873e858fc27dc398a4d0",
    # The report-*-json pins were retaken when ``out_dir`` left the study's
    # config: the written config lost its ``"out_dir": null`` and the
    # run_id hashed from it moved; the rows, slopes and CSVs kept their bytes.
    "report-heat-mult-False-json": "61ac7f227818ec61c6a6e613f128613a4618c486a79a2aee656a3914792ec56f",
    "report-heat-mult-False-csv": "2d31aa3439d75791d75c808d694cb50bc1785d8025a8973de773e33e9c62bb1c",
    # exp-euler and exp-euler-nodrift leave one row three standard errors
    # above zero: their multi-step reports give the reason, not a slope.
    "report-heat-mult-True-json": "4d51bfe008a8b88bc4e1f306c74a6a4deb0a238b181e17e95a7490d0cfce7bc8",
    "report-heat-mult-True-csv": "bbac7e059c9e1100eb377354d7c26929f6aaca0eda9e29aee853579283cf62e0",
    # Four of the five heat-add schemes equal the reference to rounding and
    # report the reason instead of a slope.
    "report-heat-add-False-json": "c7140dfa7705335d3de25a281c09179d8b36f2e57c0c490377b88674ed224cd8",
    "report-heat-add-False-csv": "dc6c96b14a6a9faf708d3a922b3e45c99ddaa5aa453f8ac3d91c25249f00184c",
    "report-heat-add-True-json": "a800eb0bc77360c8c2a09fbae3e251ad8737f1dd59dd23ebbecac0fb73349e1d",
    "report-heat-add-True-csv": "2d09be17c9655efb1e930287945ad4200a0aafdc0be695ac884612952ae4c410",
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


def test_every_family_is_pinned(dump):
    stdout, _, _ = dump
    assert dict(line.split() for line in stdout.splitlines()) == PINNED


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
    families = {name.rsplit("-", 1)[0] if name.startswith("report") else name for name in PINNED}
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
