"""`orbicalc rstar` prints exactly the bytes it printed before boundaries
became sparse columns: SHA-256 digests of stdout, taken in process from
the dense-boundary implementation, for the census and the homology."""

import contextlib
import hashlib
import io

import pytest

from orbicalc import cli

# (max order, max dim, include isos, mode) -> SHA-256 of stdout.
PINNED = {
    (3, 2, False, "census"): "c00e4f26e934db544aca1f6c431dedf9919e062d0b293c8c5ff7b528b09e5dc4",
    (3, 2, False, "homology"): "ae8092c8b5eae14c6316a9f8dd8e8bcbf8d5a911f6d4ed0803e88d9921c676fa",
    (4, 3, False, "census"): "9b61cc787dd396ac307f577497daa1285a6405fd213d4b1fbd2561c6dba66e9e",
    (4, 3, False, "homology"): "82178eb25bd1d7d2e6d97244ab26584121a0546829faee573b27e2a190decfb9",
    (8, 4, False, "census"): "0c7af15eeb752e97785dadd8327b6dcbf5ec0606a40e0ac015a3cde586b87af4",
    (8, 4, False, "homology"): "12db166610fb72de28cd5356ee67bdb45fbce81695fe1ab0e9ef8df9b02afd5a",
    (12, 4, False, "census"): "88adbae374e25c971acd054f16bb31d2458ccbaa16f7264c77d66392ae8b8b0c",
    (12, 4, False, "homology"): "51ab5cc2ad10b891e347a78aa39e82b1d07d7be4e1df04ee0f8b6f3f78e64bbe",
    (6, 4, True, "census"): "665e36af91072888e9d8c0e69636791c526424699ea9a0b6b222da339cd61adc",
    (6, 4, True, "homology"): "fbf4b91d0a667dc596fa4f35f5107448fe1218e5bd73df7462cb020619dee92e",
    (8, 2, True, "census"): "fe919a841701a7ac540caed5facfdb756affae031f99bbf3f4e99608ac0029dd",
    (8, 2, True, "homology"): "523717fa3ca6b8526a87a4ab35bd74d8cc9d0c1c2dcd44e26ccc1d4f434e5e41",
}


@pytest.mark.parametrize("spec", sorted(PINNED), ids=lambda s: "N{}-d{}-{}{}".format(
    s[0], s[1], s[3], "-isos" if s[2] else ""))
def test_rstar_stdout_is_byte_identical(spec):
    n, d, isos, mode = spec
    argv = ["rstar", "--max-order", str(n), "--max-dim", str(d), f"--{mode}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--include-isos"] * isos)
    assert (code, err.getvalue()) == (0, "")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == PINNED[spec]
