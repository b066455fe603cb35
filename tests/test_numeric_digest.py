"""The numeric digests of ``scripts/numeric_digest.py``, pinned.

Every family is small enough to pin: together they run in about 1.5 s on
a 2-vCPU Xeon.  A change that moves a digest moves numbers: it says which
family moved and why, and takes the new pin.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "numeric_digest.py"
_spec = importlib.util.spec_from_file_location("numeric_digest", SCRIPT)
numeric_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(numeric_digest)

PINNED = {
    "mult32": "b359d13167b6b89bb0cac9ca3934c1e5403d589738d2f4621a265b1c4847d78e",
    "mult16x8": "940fc92b3888cde09600800158fd8cf88b6e128ca55ddf632a90535042353177",
    "mult8x16": "f14a8223277f94ef109895cf12f0a1cdbe4bc7e10687f9fc68361dd4a7023ce4",
    "mult64": "fe71c8e3eb340ddd75e101abf2842e28c4fc374d08dcd1e9f5841e7380085927",
    "add8": "d7af0edeb4bf0a484b21568a3e9c46751900f969a61b045c8c85fe7a2cc085f4",
    "add8x4": "a1c3b03d156749c4653fa35e76e1feb233c87fcfa6f3c66c14703045219f9480",
    "add4x8": "dbc4dcc397e59311d42860bc1e854ccd2b7a2cb69633995a6ff33f2da872d1cd",
    # Criterion 3's shape, as the order study's benchmark op builds it, and
    # criterion 4's, the variance op's: the end states at the arithmetic of
    # the rows reduced by an einsum, which the fused diagonal sum keeps.
    "order_shape": "112bc6a909e5a6cb993fbde96c50b310229dffd3cf2bc481c9300dbe655831b8",
    "variance_shape": "dd191cab5360d005ba3160a90eff258737aa7df2143f873e858fc27dc398a4d0",
    "report-heat-mult-False-json": "12ebe62380c9dd7390a451d7df6db8b0620f9fb094b8443401b3eac5c5520227",
    "report-heat-mult-False-csv": "967112ae129d743679c480c2b18c49e29320212080e66f9137ddb85c2e682838",
    # exp-euler and exp-euler-nodrift leave one row three standard errors
    # above zero: their multi-step reports give the reason, not a slope.
    "report-heat-mult-True-json": "c2c2b8d8ecc77b73684aaf3eb7dfbcfd76082bdfbc9b377ce1bff7c15a1f4655",
    "report-heat-mult-True-csv": "15945cc96fd82912ac19fee2e39a1ac5683b9b8f7b29a56e11dc64099b4439cc",
    # Four of the five heat-add schemes equal the reference to rounding and
    # report the reason instead of a slope.
    "report-heat-add-False-json": "f362d481c1eb191a1fc01d41d2d4b2a323e908d6ec4e13fa1d10940b146d87ce",
    "report-heat-add-False-csv": "3d9b2c2ea9b61c482bd029a903a89e58dc7ef914eb642fb0a334f489f18bb458",
    "report-heat-add-True-json": "9a95bbe95146bd31ea80211196d32f680366f9205c516177cf9e649f33669218",
    "report-heat-add-True-csv": "3f264b7518c548389b4411e8b438615c0dd43dacceae44cc72e956e88a25521d",
}


def test_every_family_is_pinned():
    assert numeric_digest.digests() == PINNED
