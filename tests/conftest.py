import pytest

from endotriv import rho


@pytest.fixture(scope="session")
def composite_iii_certificate():
    """The composite-iii family's default certificate, SL(4,4) at p = 3, from
    the real builder once per session (about 1 s a build); tests copy it with
    `dataclasses.replace` and never mutate it."""
    return rho.build_block_count_certificate(4, 4, 3)


@pytest.fixture
def composite_iii_replay(monkeypatch, composite_iii_certificate):
    """Serve the session's certificate to replays of composite-iii (4, 4, 3)
    at the default cap; every other instance goes to the real builder."""
    build = rho.build_block_count_certificate

    def served(n, q, p, cap=None):
        if (n, q, p, cap) == (4, 4, 3, None):
            return composite_iii_certificate
        return build(n, q, p, cap)

    monkeypatch.setattr(rho, "build_block_count_certificate", served)
