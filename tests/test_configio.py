"""Tests for config parsing, canonical serialization, hashing, and writers."""

import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aliasbench.activations import ADAA_BASES, OVERSAMPLE_FACTORS, ActivationSpec
from aliasbench.configio import (
    ConfigError,
    atomic_write_bytes,
    config_hash,
    file_sha256,
    load_configs,
    parse_blocks,
    serialize_spec,
    spec_from_block,
    write_csv,
    write_manifest,
)
from aliasbench.upsamplers import UPSAMPLER_KINDS, UpsamplerSpec

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
#: Names survive a key = value line: no line breaks, no edge whitespace.
names = st.text(string.ascii_letters + string.digits + "_-.=#", min_size=1)

#: A strategy for each parameter field of ActivationSpec.
ACTIVATION_PARAMS = {"alpha": positive, "beta": positive, "slope": finite, "elu_a": finite,
                     "adaa_tol": positive, "adaa_base": st.sampled_from(ADAA_BASES)}


@st.composite
def activation_specs(draw):
    """Valid specs: each parameter is drawn for the kinds that read it, and
    for adaa_generic the parameters of its drawn base too."""
    kind = draw(st.sampled_from(ActivationSpec._KINDS))
    kw = {k: draw(ACTIVATION_PARAMS[k]) for k in ActivationSpec._READS[kind]}
    if kind == "adaa_generic":
        kw.update({k: draw(ACTIVATION_PARAMS[k]) for k in ActivationSpec._READS[kw["adaa_base"]]})
    return ActivationSpec(kind=kind, oversample=draw(st.sampled_from(OVERSAMPLE_FACTORS)), name=draw(names),
                          table_row=draw(st.booleans()), **kw)


@st.composite
def upsampler_specs(draw):
    """Valid specs: the noise prior is drawn for aa_resample only, and the
    seed for the two layers that draw from it: conv_transpose, and
    aa_resample with the prior."""
    kind = draw(st.sampled_from(UPSAMPLER_KINDS))
    kw = {}
    if kind == "aa_resample":
        kw["noise_prior"] = draw(st.booleans())
    if kind == "conv_transpose" or kw.get("noise_prior"):
        kw["seed"] = draw(st.integers(0, 2**64 - 1))
    return UpsamplerSpec(kind=kind, factor=draw(st.integers(2, 64)), name=draw(names), **kw)


BOOL_FIELDS = [(ActivationSpec, "table_row"), (UpsamplerSpec, "noise_prior")]


class TestParseBlocks:
    def test_blank_lines_separate_blocks(self):
        text = "kind = elu\nname = A\n\n\nkind = snakebeta\n"
        assert parse_blocks(text) == [
            {"kind": "elu", "name": "A"},
            {"kind": "snakebeta"},
        ]

    def test_comments_and_spacing_are_ignored(self):
        text = "# header comment\n  kind=elu  \n#trailing\n   alpha =  2.5\n"
        assert parse_blocks(text) == [{"kind": "elu", "alpha": "2.5"}]

    def test_value_may_contain_equals(self):
        assert parse_blocks("name = a=b\n") == [{"name": "a=b"}]

    def test_empty_text_gives_no_blocks(self):
        assert parse_blocks("") == []
        assert parse_blocks("\n\n# only comments\n\n") == []

    def test_duplicate_key_names_the_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_blocks("kind = elu\nalpha = 1\nkind = snakebeta\n")

    def test_duplicate_key_allowed_across_blocks(self):
        blocks = parse_blocks("kind = elu\n\nkind = elu\n")
        assert len(blocks) == 2

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_blocks("just some words\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_blocks("= 3\n")


class TestSpecRoundTrip:
    def test_activation_round_trip(self):
        spec = ActivationSpec(
            "adaa_snakebeta", alpha=2.5, beta=0.3, oversample=4, name="X", table_row=True
        )
        blocks = parse_blocks(serialize_spec(spec))
        assert len(blocks) == 1
        assert spec_from_block(ActivationSpec, blocks[0]) == spec

    def test_upsampler_round_trip(self):
        for spec in (
            UpsamplerSpec("conv_transpose", factor=4, seed=11),
            UpsamplerSpec("aa_resample", factor=4, seed=11, noise_prior=True, name="P"),
        ):
            blocks = parse_blocks(serialize_spec(spec))
            assert spec_from_block(UpsamplerSpec, blocks[0]) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            spec_from_block(ActivationSpec, {"kind": "elu", "alfa": "2"})

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            spec_from_block(ActivationSpec, {"kind": "elu", "alpha": "two"})
        with pytest.raises(ConfigError, match="bad value"):
            spec_from_block(UpsamplerSpec, {"kind": "linear", "noise_prior": "yes"})

    def test_missing_kind_rejected(self):
        with pytest.raises(ConfigError, match="missing 'kind'"):
            spec_from_block(ActivationSpec, {"alpha": "2"})
        with pytest.raises(ConfigError, match="missing 'kind'"):
            spec_from_block(UpsamplerSpec, {"factor": "2"})

    def test_invalid_spec_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            spec_from_block(ActivationSpec, {"kind": "swish"})
        with pytest.raises(ConfigError):
            spec_from_block(UpsamplerSpec, {"kind": "linear", "factor": "1"})
        with pytest.raises(ConfigError, match="noise_prior"):
            spec_from_block(UpsamplerSpec, {"kind": "linear", "noise_prior": "true"})
        with pytest.raises(ConfigError, match="seed"):
            spec_from_block(UpsamplerSpec, {"kind": "aa_resample", "seed": "3"})
        with pytest.raises(ConfigError, match="seed"):
            spec_from_block(UpsamplerSpec, {"kind": "conv_transpose", "seed": "-1"})
        with pytest.raises(ConfigError, match="slope does not apply to snakebeta"):
            spec_from_block(ActivationSpec, {"kind": "snakebeta", "slope": "0.2"})


class TestDerivedParserProperties:
    @settings(deadline=None)
    @given(st.one_of(activation_specs(), upsampler_specs()))
    def test_serialize_parse_round_trip(self, spec):
        (block,) = parse_blocks(serialize_spec(spec))
        back = spec_from_block(type(spec), block)
        assert back == spec
        assert config_hash(back) == config_hash(spec)

    @settings(deadline=None)
    @given(
        st.sampled_from(BOOL_FIELDS),
        st.text() | st.sampled_from(["true", "false"]).flatmap(
            lambda w: st.tuples(*[st.sampled_from([c, c.upper()]) for c in w]).map("".join)
        ),
    )
    def test_bool_fields_take_only_true_or_false(self, cls_field, value):
        cls, field = cls_field
        block = {"kind": "elu" if cls is ActivationSpec else "aa_resample", field: value}
        if value.lower() in ("true", "false"):
            assert getattr(spec_from_block(cls, block), field) is (value.lower() == "true")
        else:
            with pytest.raises(ConfigError, match="bad value"):
                spec_from_block(cls, block)


class TestLoaders:
    def test_load_activation_configs(self, tmp_path):
        p = tmp_path / "acts.cfg"
        p.write_text("kind = elu\nname = E\n\nkind = snakebeta\nalpha = 3\n", encoding="utf-8")
        specs = load_configs(ActivationSpec, p)
        assert [s.name for s in specs] == ["E", "snakebeta"]
        assert specs[1].alpha == 3.0

    def test_load_upsampler_configs(self, tmp_path):
        p = tmp_path / "ups.cfg"
        p.write_text("kind = aa_resample\nfactor = 2\nnoise_prior = true\n", encoding="utf-8")
        (spec,) = load_configs(UpsamplerSpec, p)
        assert spec.noise_prior is True

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.cfg"
        p.write_text("# nothing here\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="no config blocks"):
            load_configs(ActivationSpec, p)


class TestConfigHash:
    def test_twelve_hex_chars(self):
        h = config_hash(ActivationSpec("elu"))
        assert len(h) == 12
        int(h, 16)

    def test_any_field_change_moves_the_hash(self):
        base = ActivationSpec("snakebeta")
        variants = [
            ActivationSpec("snakebeta", alpha=2.0),
            ActivationSpec("snakebeta", beta=2.0),
            ActivationSpec("snakebeta", oversample=2),
            ActivationSpec("snakebeta", name="other"),
            ActivationSpec("snakebeta", table_row=True),
        ]
        hashes = {config_hash(s) for s in [base, *variants]}
        assert len(hashes) == 6

    def test_golden_values_are_stable(self):
        """Frozen hashes: a change here means every manifest and CSV changes
        identity, which must be a deliberate decision."""
        assert config_hash(ActivationSpec("snakebeta")) == "c9e23335c52e"
        assert config_hash(UpsamplerSpec("aa_resample")) == "450c2f4e5188"


class TestWriters:
    def test_write_csv_is_lf_only_utf8(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["a", "b"], [["1", "2"], ["3", "4"]])
        raw = p.read_bytes()
        assert b"\r" not in raw
        assert raw == b"a,b\n1,2\n3,4\n"

    def test_write_manifest_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        write_manifest(p1, {"b": 2, "a": {"z": 1, "y": [3, 2]}})
        write_manifest(p2, {"a": {"y": [3, 2], "z": 1}, "b": 2})
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_text(encoding="utf-8").startswith('{\n  "a"')

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        p = tmp_path / "out.txt"
        atomic_write_bytes(p, b"payload\n")
        assert [q.name for q in tmp_path.iterdir()] == ["out.txt"]
        assert p.read_text(encoding="utf-8") == "payload\n"

    def test_atomic_write_replaces_existing(self, tmp_path):
        p = tmp_path / "out.txt"
        p.write_text("old", encoding="utf-8")
        atomic_write_bytes(p, b"new\n")
        assert p.read_text(encoding="utf-8") == "new\n"

    def test_atomic_write_removes_temp_when_rename_fails(self, tmp_path):
        target = tmp_path / "taken"
        (target / "inside").mkdir(parents=True)
        with pytest.raises(OSError):
            atomic_write_bytes(target, b"payload\n")
        assert sorted(q.name for q in tmp_path.iterdir()) == ["taken"]

    def test_file_sha256_matches_hashlib(self, tmp_path):
        import hashlib

        p = tmp_path / "blob.bin"
        rng = np.random.default_rng(42)
        blob = rng.bytes(100000)
        p.write_bytes(blob)
        assert file_sha256(p) == hashlib.sha256(blob).hexdigest()
