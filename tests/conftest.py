import shutil

import pytest

from gazekit import forest


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the compiled kernels into this session's temporary directory,
    not the user's cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        patch.setattr(forest, "_kernel", forest._UNRESOLVED)
        yield


@pytest.fixture(scope="session")
def compiled(kernel_cache):
    """The compiled kernels; skips the test when there is no compiler."""
    if shutil.which(forest._COMPILER) is None:
        pytest.skip(f"no C compiler: {forest._COMPILER!r} is not on PATH")
    kernels = forest._load_kernels()
    assert kernels is not None, "a compiler is on PATH but the kernels did not build"
    return kernels


@pytest.fixture(scope="module", params=["c", "numpy"])
def kernel(request):
    """Runs a test on the compiled kernels and on the numpy fallback, by
    setting the forest module's kernel handle."""
    handle = request.getfixturevalue("compiled") if request.param == "c" else None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(forest, "_kernel", handle)
        yield handle
