"""The numeric digests of ``scripts/numeric_digest.py``, pinned.

Every family is small enough to pin: together they run in about 1.5 s on
a 2-vCPU Xeon.  The script runs in its own process, so that BLAS starts
on the one thread the script asks for whatever the test process set up.
A change that moves a digest moves numbers: it says which family moved
and why, and takes the new pin.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "numeric_digest.py"

PINNED = {
    "mult32": "73f25fef7efa23463fd10f3085a91e8d20c8fa72ca5f8f14f3e3ae4f97a9edd3",
    "mult16x8": "18efb87d1b20d94dca1b69ea57d0dd5e84ee0cbbeca635999fa429580a1bf12d",
    "mult8x16": "31e3e2405182e94590342700f3ca2635e8453ca6fe73dd6b9f61d21522a9e3df",
    "mult64": "6792b5f720d028e379f3abb55ebae271ae80b7400401bed1994710305f051b6e",
    "add8": "d7af0edeb4bf0a484b21568a3e9c46751900f969a61b045c8c85fe7a2cc085f4",
    "add8x4": "a1c3b03d156749c4653fa35e76e1feb233c87fcfa6f3c66c14703045219f9480",
    "add4x8": "dbc4dcc397e59311d42860bc1e854ccd2b7a2cb69633995a6ff33f2da872d1cd",
    # Criterion 3's shape, as the order study's benchmark op builds it, and
    # criterion 4's, the variance op's: the end states at the arithmetic of
    # the rows reduced by an einsum, which the fused diagonal sum keeps.
    "order_shape": "a6a3d2393b5dde10f5f7d0234aeb8477b0868801f4bbc35896a9260fc429205e",
    "variance_shape": "dd191cab5360d005ba3160a90eff258737aa7df2143f873e858fc27dc398a4d0",
    # The report-*-json pins were retaken when ``out_dir`` left the study's
    # config: the written config lost its ``"out_dir": null`` and the
    # run_id hashed from it moved; the rows, slopes and CSVs kept their bytes.
    "report-heat-mult-False-json": "2629175df24046e383c0143e23672d1c39879e642a0c7d0491b90c376e66aa0b",
    "report-heat-mult-False-csv": "967112ae129d743679c480c2b18c49e29320212080e66f9137ddb85c2e682838",
    # exp-euler and exp-euler-nodrift leave one row three standard errors
    # above zero: their multi-step reports give the reason, not a slope.
    "report-heat-mult-True-json": "6bac8f44dbe8828773e572bd25592521b66a5eca39d3c801591c01fc389d2213",
    "report-heat-mult-True-csv": "15945cc96fd82912ac19fee2e39a1ac5683b9b8f7b29a56e11dc64099b4439cc",
    # Four of the five heat-add schemes equal the reference to rounding and
    # report the reason instead of a slope.
    "report-heat-add-False-json": "237eafc4d64ce16f56e5769073bf5a647c603a7675ba7361b49624a0d425fcbd",
    "report-heat-add-False-csv": "3d9b2c2ea9b61c482bd029a903a89e58dc7ef914eb642fb0a334f489f18bb458",
    "report-heat-add-True-json": "c6b642944dcaf2e6a1f4b57762b38ceb2253609784ded6fc483be468d50dc000",
    "report-heat-add-True-csv": "3f264b7518c548389b4411e8b438615c0dd43dacceae44cc72e956e88a25521d",
}


@pytest.fixture(scope="module")
def dump(tmp_path_factory):
    """The script's output, with every family's values written to a
    directory, and that directory."""
    values = tmp_path_factory.mktemp("values")
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--values", str(values)],
        capture_output=True, text=True, check=True,
    )
    return run.stdout, values


def test_every_family_is_pinned(dump):
    stdout, _ = dump
    assert dict(line.split() for line in stdout.splitlines()) == PINNED


def test_a_dump_compared_with_itself_changes_by_zero(dump):
    _, values = dump
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--compare", str(values), str(values)],
        capture_output=True, text=True, check=True,
    )
    families = {name.rsplit("-", 1)[0] if name.startswith("report") else name for name in PINNED}
    assert dict(line.split() for line in run.stdout.splitlines()) == dict.fromkeys(families, "0")


def test_a_value_moved_by_one_ulp_fails_the_compare(dump, tmp_path):
    # Every line is still printed; the exit status says that one moved.
    _, values = dump
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
    changes = dict(line.split() for line in run.stdout.splitlines())
    assert float(changes.pop("mult32")) > 0.0
    assert set(changes.values()) == {"0"}
