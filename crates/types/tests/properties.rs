//! Property tests for Concord's value types, on seeded inputs from
//! `concord_rng::prop` (`CONCORD_PROP_SEED`, `CONCORD_PROP_CASES`).
//!
//! The parse/render round trips matter beyond this crate: the unique
//! pass keys values by [`Value::render`], so a value must render one
//! way however it was written.

use concord_json::{FromJson, Json, ToJson};
use concord_rng::prop;
use concord_rng::{Rng, StdRng};
use concord_types::{BigNum, IpAddress, IpNetwork, MacAddress, Transform, Value, ValueType};

/// Cases per property when `CONCORD_PROP_CASES` is unset.
const CASES: u64 = 256;

/// A `u64` biased toward the edges a uniform draw rarely hits.
fn any_u64(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..8u32) {
        0 => *prop::pick(rng, &[0, 1, u64::from(u32::MAX), u64::MAX - 1, u64::MAX]),
        1 => rng.gen_range(0..1000u64),
        _ => rng.next_u64(),
    }
}

fn any_u128(rng: &mut StdRng) -> u128 {
    (u128::from(any_u64(rng)) << 64) | u128::from(any_u64(rng))
}

fn any_u32(rng: &mut StdRng) -> u32 {
    any_u64(rng) as u32
}

fn any_octets(rng: &mut StdRng) -> [u8; 6] {
    let mut octets = [0u8; 6];
    for octet in &mut octets {
        *octet = rng.gen_range(0..=255u8);
    }
    octets
}

fn v4_net(rng: &mut StdRng) -> IpNetwork {
    let len = rng.gen_range(0..=32u8);
    IpNetwork::new(IpAddress::V4(any_u32(rng)), len).expect("prefix length in range")
}

/// Decimal parse/display is a bijection on canonical strings.
#[test]
fn bignum_decimal_roundtrip() {
    prop::check("bignum_decimal_roundtrip", CASES, |rng| {
        let s = any_u128(rng).to_string();
        let n = BigNum::from_decimal(&s).expect("decimal parses");
        assert_eq!(n.to_string(), s);
    });
}

/// Hex rendering agrees with the standard library for `u64`.
#[test]
fn bignum_hex_agrees_with_std() {
    prop::check("bignum_hex_agrees_with_std", CASES, |rng| {
        let v = any_u64(rng);
        assert_eq!(BigNum::from(v).to_hex(), format!("{v:x}"));
    });
}

/// `add` then `sub` is the identity.
#[test]
fn bignum_add_sub_inverse() {
    prop::check("bignum_add_sub_inverse", CASES, |rng| {
        let (a, b) = (BigNum::from(any_u64(rng)), BigNum::from(any_u64(rng)));
        assert_eq!(a.add(&b).sub(&b), a);
    });
}

/// `abs_diff` is symmetric and zero iff equal.
#[test]
fn bignum_abs_diff_symmetric() {
    prop::check("bignum_abs_diff_symmetric", CASES, |rng| {
        let (a, b) = (any_u64(rng), any_u64(rng));
        let (x, y) = (BigNum::from(a), BigNum::from(b));
        assert_eq!(x.abs_diff(&y), y.abs_diff(&x));
        assert_eq!(x.abs_diff(&y).is_zero(), a == b);
        assert_eq!(x.abs_diff(&x), BigNum::zero());
    });
}

/// Ordering on `BigNum` agrees with ordering on `u64`.
#[test]
fn bignum_order_agrees() {
    prop::check("bignum_order_agrees", CASES, |rng| {
        let (a, b) = (any_u64(rng), any_u64(rng));
        assert_eq!(BigNum::from(a).cmp(&BigNum::from(b)), a.cmp(&b));
    });
}

/// IPv4 parse/display round trip.
#[test]
fn ipv4_roundtrip() {
    prop::check("ipv4_roundtrip", CASES, |rng| {
        let addr = IpAddress::V4(any_u32(rng));
        let back: IpAddress = addr.to_string().parse().expect("IPv4 reparses");
        assert_eq!(back, addr);
    });
}

/// IPv6 parse/display round trip (display is canonical, reparse equal).
#[test]
fn ipv6_roundtrip() {
    prop::check("ipv6_roundtrip", CASES, |rng| {
        let addr = IpAddress::V6(any_u128(rng));
        let back: IpAddress = addr.to_string().parse().expect("IPv6 reparses");
        assert_eq!(back, addr);
    });
}

/// A network contains its own (canonicalized) address and the address
/// it was built from.
#[test]
fn network_contains_self() {
    prop::check("network_contains_self", CASES, |rng| {
        let bits = any_u32(rng);
        let len = rng.gen_range(0..=32u8);
        let net = IpNetwork::new(IpAddress::V4(bits), len).expect("prefix length in range");
        assert!(net.contains(net.addr()));
        assert!(net.contains(IpAddress::V4(bits)));
    });
}

/// A longer prefix of the same address is a subnet.
#[test]
fn network_subnet_transitive() {
    prop::check("network_subnet_transitive", CASES, |rng| {
        let bits = any_u32(rng);
        let l1 = rng.gen_range(0..=30u8);
        let extra = rng.gen_range(1..=2u8);
        let outer = IpNetwork::new(IpAddress::V4(bits), l1).expect("outer prefix");
        let inner = IpNetwork::new(IpAddress::V4(bits), l1 + extra).expect("inner prefix");
        assert!(outer.contains_net(&inner));
    });
}

/// MAC parse/display round trip.
#[test]
fn mac_roundtrip() {
    prop::check("mac_roundtrip", CASES, |rng| {
        let mac = MacAddress::new(any_octets(rng));
        let back: MacAddress = mac.to_string().parse().expect("MAC reparses");
        assert_eq!(back, mac);
    });
}

/// `segment(i)` equals the hex rendering of the corresponding octet.
#[test]
fn mac_segments_match_octets() {
    prop::check("mac_segments_match_octets", CASES, |rng| {
        let octets = any_octets(rng);
        let i = rng.gen_range(1..=6u8);
        let mac = MacAddress::new(octets);
        assert_eq!(
            mac.segment(i).expect("segment in range"),
            format!("{:02x}", octets[usize::from(i - 1)])
        );
    });
}

/// Every enumerated transformation applies to the value it was
/// enumerated for.
#[test]
fn enumerated_transforms_apply() {
    prop::check("enumerated_transforms_apply", CASES, |rng| {
        let values = [
            Value::Num(BigNum::from(any_u64(rng))),
            Value::Ip(IpAddress::V4(any_u32(rng))),
            Value::Net(v4_net(rng)),
        ];
        for value in &values {
            for t in Transform::enumerate_for(value) {
                assert!(t.apply(value).is_some(), "{t:?} on {value:?}");
            }
        }
    });
}

/// The hex transform of a number reparses as the same number.
#[test]
fn hex_transform_roundtrip() {
    prop::check("hex_transform_roundtrip", CASES, |rng| {
        let v = any_u64(rng);
        let hex = Transform::Hex
            .apply(&Value::Num(BigNum::from(v)))
            .expect("hex applies to numbers");
        let back = BigNum::from_hex(hex.as_str().expect("hex renders a string"));
        assert_eq!(back, Some(BigNum::from(v)));
    });
}

/// Values survive their JSON encoding, for every constructor.
#[test]
fn value_json_roundtrip() {
    prop::check("value_json_roundtrip", CASES, |rng| {
        let values = vec![
            Value::Num(BigNum::from(any_u64(rng))),
            Value::Bool(rng.gen_bool(0.5)),
            Value::Ip(IpAddress::V4(any_u32(rng))),
            Value::Ip(IpAddress::V6(any_u128(rng))),
            Value::Net(v4_net(rng)),
            Value::Mac(MacAddress::new(any_octets(rng))),
            Value::Str(prop::printable(rng, 0..=16)),
        ];
        let text = values.to_json().to_string();
        let back = Vec::<Value>::from_json(&Json::parse(&text).expect("JSON parses"))
            .expect("values decode");
        assert_eq!(back, values);
    });
}

/// Scores stay within `[0, 1]` for arbitrary values.
#[test]
fn scores_in_unit_interval() {
    prop::check("scores_in_unit_interval", CASES, |rng| {
        let values = [
            Value::Num(BigNum::from(any_u64(rng))),
            Value::Bool(true),
            Value::Ip(IpAddress::V4(any_u32(rng))),
            Value::Net(v4_net(rng)),
            Value::Str(prop::printable(rng, 0..=24)),
        ];
        for value in &values {
            let score = concord_types::score::value_score(value);
            assert!((0.0..=1.0).contains(&score), "{value:?} scored {score}");
        }
    });
}

/// `parse_as` accepts exactly what each family's renderer produces,
/// and gives back an equal value: `render` is a canonical key.
#[test]
fn parse_as_accepts_rendered() {
    prop::check("parse_as_accepts_rendered", CASES, |rng| {
        let values = [
            (ValueType::Num, Value::Num(BigNum::from(any_u64(rng)))),
            (ValueType::Bool, Value::Bool(rng.gen_bool(0.5))),
            (ValueType::Ip4, Value::Ip(IpAddress::V4(any_u32(rng)))),
            (ValueType::Ip6, Value::Ip(IpAddress::V6(any_u128(rng)))),
            (ValueType::Pfx4, Value::Net(v4_net(rng))),
            (ValueType::Mac, Value::Mac(MacAddress::new(any_octets(rng)))),
        ];
        for (ty, value) in &values {
            let rendered = value.render();
            let back = Value::parse_as(ty, &rendered);
            assert_eq!(back.as_ref(), Some(value), "{ty:?} {rendered}");
            let mut into = String::new();
            value.render_into(&mut into);
            assert_eq!(into, rendered);
        }
    });
}

/// Two spellings of one value render to one key: a number written with
/// leading zeros or as hex, and an IPv6 address written uncompressed.
#[test]
fn rendering_is_canonical_across_spellings() {
    prop::check("rendering_is_canonical_across_spellings", CASES, |rng| {
        let n = any_u64(rng);
        let padded = format!("{}{n}", "0".repeat(rng.gen_range(0..4usize)));
        let as_decimal = Value::parse_as(&ValueType::Num, &padded).expect("padded decimal");
        let as_hex = Value::parse_as(&ValueType::Hex, &format!("0x{n:X}")).expect("hex");
        assert_eq!(as_decimal.render(), n.to_string());
        assert_eq!(as_hex.render(), n.to_string());

        let bits = any_u128(rng);
        let groups: Vec<String> = (0..8)
            .map(|g| format!("{:04x}", (bits >> (112 - 16 * g)) as u16))
            .collect();
        let long = Value::parse_as(&ValueType::Ip6, &groups.join(":")).expect("full IPv6");
        assert_eq!(long, Value::Ip(IpAddress::V6(bits)));
        assert_eq!(long.render(), IpAddress::V6(bits).to_string());
    });
}
