import shutil

import pytest

from gazekit import _native


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Build the compiled kernels into this session's temporary directory,
    not the user's cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        patch.setattr(_native, "_kernel", _native._UNRESOLVED)
        yield


@pytest.fixture(scope="session")
def compiled(kernel_cache):
    """The compiled kernels; skips the test when there is no compiler."""
    if shutil.which(_native.COMPILER) is None:
        pytest.skip(f"no C compiler: {_native.COMPILER!r} is not on PATH")
    kernels = _native.load_kernels()
    assert kernels is not None, "a compiler is on PATH but the kernels did not build"
    return kernels


@pytest.fixture(scope="module", params=["c", "numpy"])
def kernel(request):
    """Runs a test on the compiled kernels and on the numpy fallback, by
    setting the one kernel handle that the forest and the pupil search share."""
    handle = request.getfixturevalue("compiled") if request.param == "c" else None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_native, "_kernel", handle)
        yield handle
