"""CLI stdout pinned byte for byte: sha256 digests of a fixed set of requests.

The digests were recorded from the implementation that ran the decrement
simulation on every request; the closed-form analysis record must reproduce
every byte.  A deliberate change of output updates the digest with it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from minitwistor.cli import main

GOLDEN = (
    ("analyze --seq 1,2,5,3,1 --format text", "1fd5201667a3ea046f1c25e6362f6f0d5ab4c3bed3f5320623c61f54a2924809"),
    ("analyze --seq 1,2,5,3,1 --format json", "12ce41d92aaa4b5497e3da6edd0c8b5adeb578c40bd0c30adb44d87a48d67dc7"),
    ("analyze --seq 1,2,5,3,1 --format latex", "3bf47578972011b7a850d19da9926afc1adb1aedbd2eb698437c901b16b0696f"),
    ("deform-check --seq 1,2,5,3,1 --format text", "0b93f79e827487e803e5159b08a07b243249bbb9b4f48b58b15926ec5c1cbc5f"),
    ("schedule --seq 1,2,5,3,1 --format text", "3b930586e5e1d813fb82a659d1ece8bbb8f31ac405345aedf414115fcf1fdaeb"),
    ("deform-check --seq 1,2,5,3,1 --format json", "576c38ec782e382311eb0c95bc58d2ef65a6c4715bfa134ed4e9b0209235ea08"),
    ("deform-check --seq 1,1,1,1 --format json", "b5b546da1df5b122fbd659c8330ba54f732ab455fef5afc68d7bf5e95e603f13"),
    ("deform-check --seq 1,1,1,1 --format text", "ecc710eb92a965879ba9c126e65671fb7895428574974ba413dc698eda062d57"),
    ("schedule --seq 1,2,5,3,1 --format json", "5d08a2d6586e664d8e01a190a5100f5613c2fbea14bc1f8d513113c1f18475cb"),
    ("analyze --seq 1,1,2,5,3,1,2,1,1,1 --format text", "9f30c112d6acb187590367268eeb65f9eba00c8095687bc04895db981d58c35a"),
    ("analyze --seq 1,1,2,5,3,1,2,1,1,1 --format json", "12143ee8de84a2e91c43a7afea1bae770f44c34ff3b8d9a52353b924c212fa13"),
    ("analyze --seq 1,1,2,5,3,1,2,1,1,1 --format latex", "5121b04f18e6abf4792ab32e4eaa7bae0a45552554415742fbf2fea4fa89a256"),
    ("deform-check --seq 1,1,2,5,3,1,2,1,1,1 --format text", "bae89efe01c85c1448432f43572b6edfaeb97f9ce672f8f316c600c579772de7"),
    ("schedule --seq 1,1,2,5,3,1,2,1,1,1 --format text", "59d29bbb8d06d4ea94f6c1b9174beab654eee7a7faaecc1873f1d435157f87c7"),
    ("deform-check --seq 1,1,2,5,3,1,2,1,1,1 --format json", "62b2f6bcb437982429ceab038b4e5e2f0027ae88ab5d6dc07890a8644f4bb834"),
    ("schedule --seq 1,1,2,5,3,1,2,1,1,1 --format json", "e9217fb077b859c1285685631bb23824e3bea562ca2934349a785643c89f8a16"),
    ("catalog --n 6 --classes u1 --format text --no-cache", "87644025909d410d5df16664063e4a4389f9282c86d6040a007a6e673cfdd519"),
    ("catalog --n 6 --classes u1 --format json --no-cache", "f05e9a28aca4457586f840d3dbdf55165a757c219d6351b115551af11977cf58"),
    ("catalog --n 6 --classes marked --format text --no-cache", "783514d7a3dd41eab8b3cb142eb4c1b829d3119166e45fab5d36c52f0d27e9e4"),
    ("catalog --n 6 --classes marked --format json --no-cache", "9d8a410ac44c8bf4f07e1a8340fef3fa60414c27d61134d08928336bf2bc2e4a"),
    ("equation --seq 1,2,5,3,1 --lambda 0,1/2,7/3,5,11/2,inf --c -1 --format text", "23ad54f1862c760816a84a8367d037579b43bd8d4f81439e8ef27d927033ccc5"),
    ("equation --seq 1,2,5,3,1 --lambda 0,1/2,7/3,5,11/2,inf --c -1 --format json", "ec88b63699c212479ef224aea2a4ca182cd28851e50c494a4165e4b9e09caffb"),
    ("equation --seq 1,2,5,3,1 --lambda 0,1/2,7/3,5,11/2,inf --c -1 --format latex", "e7beacf4d623b161e399579cff5a9d43cd116decaaa35305f23851e331c304a5"),
    ("tables delta --n-max 6 --format text", "5a2c7f87d5cfb01310cd91d985263d201ac1566f8cf418206433010a6b7c04cd"),
    ("tables delta --n-max 6 --format json", "83611b22dbc4c9b53cbbd9c42aca5bb8d6b95e5a32fd3b6b285dd82647760857"),
    ("tables fibonacci --n-max 9 --format json", "ec02bff9cb7a28d87d33d7f415f7c18c6f35e7a7db8843e7cb706da23b85a0c2"),
    ("tables fibonacci --n-max 9 --format latex", "384f51498d28ceaefcf250a68631e7f21024ffbf6ee200247724ba5d998300b0"),
    ("tables involutive --n 7", "d04df832f98b26988579af909ca362553fd8b1afc5ed7e0c5fae9297eb35eea2"),
    ("tables lebrun --n 7 --format json", "f1c0a2a45fee39914ae04d6088df499f05fe46f9afe912e5cba6972f6df024ba"),
    # recorded from the set-based enumerator and the line-by-line listings;
    # fibonacci n = 15, 16 print the entries 987 and 1597, past the lookup
    # table of the sequence formatter
    ("catalog --classes marked --n 10 --no-cache", "b702af4a7bafe683c5e4947d22d5bdec4a2ba8f6edd23ab0e77b62af9f80aa1a"),
    ("catalog --n 9 --no-cache", "3b57c3c66ce097aa5fb65098cd5458fb0ea8645de2578205a9ac36340cffffcb"),
    ("tables fibonacci --n-max 16", "237293370cc8d72365af8c91d02769814950289155da5958c89c7e79e08efb18"),
    # recorded from the enumerate-then-group classifier, one analysis per
    # class; the block-multiset builder must reproduce every byte
    ("catalog --n 10 --no-cache", "598d171668f6181f49fcc113b1438e3e76d0dd77027200b7da1980632e84bd87"),
    ("catalog --n 10 --format json --no-cache", "9f07d2eebd62e39b06809afb407a7e9fdad1b68dcab34e9dbc17ab4c872ca6c0"),
    # recorded before the enumeration loop was fused and the class fields
    # were inlined: the heaviest requests of the catalog benchmark
    ("catalog --classes marked --n 11 --no-cache", "2f9e112debb30de1611012c9173ff9054dea145d3fce9abea8597b2d6121ae57"),
    ("catalog --n 11 --no-cache", "349aad5603dd73194d551e632c9c3a9f1f725b5e0b0415a4d836fcb2856514fc"),
    # recorded from the blocks read off the enumerated levels, before they
    # were generated directly
    ("catalog --n 12 --no-cache", "7a341a3dd91839d1dcc94e75c844e8cf66a90afb9988534def377be0a45bb061"),
    # the first level with entries above 255 (F(14) = 377), recorded while
    # the rows were still rendered one str.translate per row and block
    ("catalog --classes marked --n 13 --no-cache", "6185e1603b079864a02fbf6a9f158a35a6365f96a8e1a4bb655d5132c005efbb"),
    ("catalog --n 13 --no-cache", "dc060ec9987c926d18d2b6d40a5197eaa640631b8ad5a967053cf5e0fbc54965"),
)


class CountingStdout(io.StringIO):
    """A captured stdout that counts the calls to its write method."""

    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize(("argv", "digest"), GOLDEN, ids=[argv for argv, _ in GOLDEN])
def test_stdout_digest(argv, digest):
    out = CountingStdout()
    with contextlib.redirect_stdout(out):
        assert main(argv.split()) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
    # the whole output is written at once, after the request succeeded
    assert out.writes == 1


#: The decrement simulation and the fan construction: test oracles for the
#: closed forms of the analysis record, which no request may call.
ORACLE = (
    ("invariants", "reduction_steps"),
    ("invariants", "reduction_trace"),
    ("invariants", "trace_divisor"),
    ("invariants", "l_vector"),
    ("invariants", "regularity"),
    ("invariants", "sequence_l_vector"),
    ("fans", "fan_from_sequence"),
    ("fans", "self_intersections"),
)


def test_requests_never_call_the_oracle(count_calls, tmp_path):
    calls = {name: count_calls(module, name) for module, name in ORACLE}
    catalog = ["catalog", "--n", "5", "--cache-dir", str(tmp_path)]
    # every golden request, then a catalog miss and its hit
    for argv in [argv.split() for argv, _ in GOLDEN] + [catalog, catalog]:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    assert {name: len(made) for name, made in calls.items() if made} == {}
