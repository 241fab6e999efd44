// Package dnssec implements the DNSSEC signing and validation
// primitives of RFCs 4033–4035: key pairs for algorithms 8 (RSA/SHA-256),
// 13 (ECDSA P-256/SHA-256), and 15 (Ed25519), the canonical RRset form,
// RRSIG generation and verification, key tags, and DS records.
//
// The zone signer and the validating resolver are both built on this
// package; the NSEC3 study depends on it because only domains that
// return DNSKEY records are considered DNSSEC-enabled in the paper's
// methodology (§4.1).
package dnssec

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/dnswire"
)

// KeyPair is a DNSSEC signing key: the private key plus the DNSKEY
// record fields derived from its public half.
type KeyPair struct {
	Algorithm dnswire.SecAlgorithm
	Flags     uint16 // DNSKEYFlagZone, optionally |DNSKEYFlagSEP for a KSK
	priv      crypto.Signer
	publicKey []byte // DNSKEY Public Key field, wire format
}

// Errors from key handling.
var (
	ErrUnsupportedAlg = errors.New("dnssec: unsupported algorithm")
	ErrBadPublicKey   = errors.New("dnssec: malformed public key")
	ErrBadSignature   = errors.New("dnssec: signature verification failed")
)

// GenerateKey creates a fresh key pair for alg. ksk sets the SEP flag
// (the conventional KSK marker). rng may be nil, in which case
// crypto/rand.Reader is used; tests pass a deterministic reader.
func GenerateKey(alg dnswire.SecAlgorithm, ksk bool, rng io.Reader) (*KeyPair, error) {
	if rng == nil {
		rng = rand.Reader
	}
	flags := uint16(dnswire.DNSKEYFlagZone)
	if ksk {
		flags |= dnswire.DNSKEYFlagSEP
	}
	kp := &KeyPair{Algorithm: alg, Flags: flags}
	switch alg {
	case dnswire.AlgECDSAP256SHA256:
		priv, err := ecdsa.GenerateKey(elliptic.P256(), rng)
		if err != nil {
			return nil, err
		}
		kp.priv = priv
		kp.publicKey = ecdsaPublicWire(&priv.PublicKey)
	case dnswire.AlgEd25519:
		pub, priv, err := ed25519.GenerateKey(rng)
		if err != nil {
			return nil, err
		}
		kp.priv = priv
		kp.publicKey = append([]byte(nil), pub...)
	case dnswire.AlgRSASHA256:
		priv, err := rsa.GenerateKey(rng, 2048)
		if err != nil {
			return nil, err
		}
		kp.priv = priv
		kp.publicKey = rsaPublicWire(&priv.PublicKey)
	default:
		return nil, fmt.Errorf("%w: %s", ErrUnsupportedAlg, alg)
	}
	return kp, nil
}

// ecdsaPublicWire encodes Q = x || y, each coordinate left-padded to 32
// octets (RFC 6605 §4).
func ecdsaPublicWire(pub *ecdsa.PublicKey) []byte {
	out := make([]byte, 64)
	pub.X.FillBytes(out[:32])
	pub.Y.FillBytes(out[32:])
	return out
}

// rsaPublicWire encodes exponent-length, exponent, modulus (RFC 3110 §2).
func rsaPublicWire(pub *rsa.PublicKey) []byte {
	exp := big.NewInt(int64(pub.E)).Bytes()
	var out []byte
	if len(exp) <= 255 {
		out = append(out, byte(len(exp)))
	} else {
		out = append(out, 0)
		out = binary.BigEndian.AppendUint16(out, uint16(len(exp)))
	}
	out = append(out, exp...)
	return append(out, pub.N.Bytes()...)
}

// DNSKEY returns the public DNSKEY RDATA for the key.
func (k *KeyPair) DNSKEY() dnswire.DNSKEY {
	return dnswire.DNSKEY{
		Flags:     k.Flags,
		Protocol:  3,
		Algorithm: k.Algorithm,
		PublicKey: append([]byte(nil), k.publicKey...),
	}
}

// DNSKEYRR materializes the DNSKEY resource record at owner with ttl.
func (k *KeyPair) DNSKEYRR(owner dnswire.Name, ttl uint32) dnswire.RR {
	return dnswire.RR{Name: owner, Class: dnswire.ClassIN, TTL: ttl, Data: k.DNSKEY()}
}

// KeyTag computes the RFC 4034 Appendix B key tag over the DNSKEY RDATA.
func KeyTag(key dnswire.DNSKEY) uint16 {
	return keyTag(key.Flags, key.Protocol, key.Algorithm, key.PublicKey)
}

// keyTag is the Appendix B checksum of the RDATA flags | protocol |
// algorithm | public key, summed field by field where the octets would
// stand: the four fixed octets put flags and protocol in high bytes and
// the algorithm in a low one, so the public key's first octet is a high
// byte again.
func keyTag(flags uint16, protocol uint8, alg dnswire.SecAlgorithm, pub []byte) uint16 {
	acc := uint32(flags) + uint32(protocol)<<8 + uint32(alg)
	for i, b := range pub {
		if i&1 == 0 {
			acc += uint32(b) << 8
		} else {
			acc += uint32(b)
		}
	}
	acc += acc >> 16 & 0xFFFF
	return uint16(acc)
}

// Tag returns the key tag of this key pair's DNSKEY.
func (k *KeyPair) Tag() uint16 { return keyTag(k.Flags, 3, k.Algorithm, k.publicKey) }

// NewDS builds the DS record data for a child's DNSKEY at owner,
// digesting owner-wire || DNSKEY-RDATA (RFC 4034 §5.1.4).
func NewDS(owner dnswire.Name, key dnswire.DNSKEY, dt dnswire.DigestType) (dnswire.DS, error) {
	buf := owner.AppendWire(nil)
	buf = dnswire.AppendRData(buf, key)
	var digest []byte
	switch dt {
	case dnswire.DigestSHA1:
		d := sha1.Sum(buf)
		digest = d[:]
	case dnswire.DigestSHA256:
		d := sha256.Sum256(buf)
		digest = d[:]
	default:
		return dnswire.DS{}, fmt.Errorf("%w: digest type %d", ErrUnsupportedAlg, dt)
	}
	return dnswire.DS{
		KeyTag:     KeyTag(key),
		Algorithm:  key.Algorithm,
		DigestType: dt,
		Digest:     digest,
	}, nil
}

// VerifyDS checks that ds authenticates the DNSKEY at owner.
func VerifyDS(owner dnswire.Name, key dnswire.DNSKEY, ds dnswire.DS) error {
	if ds.KeyTag != KeyTag(key) || ds.Algorithm != key.Algorithm {
		return fmt.Errorf("dnssec: DS does not reference key %d/%s", KeyTag(key), key.Algorithm)
	}
	want, err := NewDS(owner, key, ds.DigestType)
	if err != nil {
		return err
	}
	if len(want.Digest) != len(ds.Digest) {
		return errors.New("dnssec: DS digest length mismatch")
	}
	for i := range want.Digest {
		if want.Digest[i] != ds.Digest[i] {
			return errors.New("dnssec: DS digest mismatch")
		}
	}
	return nil
}
