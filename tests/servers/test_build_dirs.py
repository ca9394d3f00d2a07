"""A builder called without ``dest`` makes a temporary build directory
for its server alone; stopping that server removes the directory and
its ``sys.path`` entry.  A ``dest`` the caller passed is left alone."""

import os
import sys

import pytest

from repro.servers import (build_cops_ftp, build_cops_http,
                           build_mail_server, build_time_server)

BUILDERS = {
    "cops_http": lambda tmp_path, **kw: build_cops_http(str(tmp_path), **kw),
    "cops_ftp": lambda tmp_path, **kw: build_cops_ftp(**kw),
    "mail": lambda tmp_path, **kw: build_mail_server(**kw),
    "time": lambda tmp_path, **kw: build_time_server(**kw),
}


def build_dir(server):
    """The directory the server's generated package was loaded from."""
    package = sys.modules[type(server).__module__.rsplit(".", 1)[0]]
    return os.path.dirname(os.path.dirname(package.__file__))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_stopping_the_server_removes_its_temporary_build(name, tmp_path):
    server = BUILDERS[name](tmp_path)[0]
    build = build_dir(server)
    assert os.path.isdir(build) and build in sys.path
    server.start()
    server.stop()
    assert not os.path.exists(build)
    assert build not in sys.path


def test_a_build_directory_the_caller_passed_is_kept(tmp_path):
    dest = str(tmp_path / "build")
    server = build_time_server(dest=dest)[0]
    server.start()
    server.stop()
    assert build_dir(server) == dest and os.path.isdir(dest)
    sys.path.remove(dest)
