package zone

import (
	"bufio"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"

	"repro/internal/dnswire"
)

// This file implements a practical subset of the RFC 1035 §5 master
// file format: $ORIGIN and $TTL directives, ';' comments, '@' for the
// origin, relative names, optional TTL and class fields, and the
// presentation syntax of every RR type in the dnswire codec. It does
// not implement multi-line parentheses or $INCLUDE.

// ParseMaster reads a master file and returns the zone rooted at origin
// (which a $ORIGIN directive may override).
func ParseMaster(r io.Reader, origin dnswire.Name, defaultTTL uint32) (*Zone, error) {
	z := New(origin, defaultTTL)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lastOwner dnswire.Name
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		startsBlank := line[0] == ' ' || line[0] == '\t'
		fields := strings.Fields(line)
		if fields[0] == "$ORIGIN" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("zone: line %d: $ORIGIN needs one argument", lineNo)
			}
			o, err := dnswire.ParseName(fields[1])
			if err != nil {
				return nil, fmt.Errorf("zone: line %d: %w", lineNo, err)
			}
			origin = o
			if len(z.records) == 0 {
				z.Apex = o
			}
			continue
		}
		if fields[0] == "$TTL" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("zone: line %d: $TTL needs one argument", lineNo)
			}
			ttl, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("zone: line %d: %w", lineNo, err)
			}
			z.TTL = uint32(ttl)
			continue
		}
		rr, owner, err := parseRecordLine(fields, startsBlank, lastOwner, origin, z.TTL)
		if err != nil {
			return nil, fmt.Errorf("zone: line %d: %w", lineNo, err)
		}
		lastOwner = owner
		if err := z.Add(rr); err != nil {
			return nil, fmt.Errorf("zone: line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return z, nil
}

func parseRecordLine(fields []string, startsBlank bool, lastOwner, origin dnswire.Name, defaultTTL uint32) (dnswire.RR, dnswire.Name, error) {
	var owner dnswire.Name
	var err error
	i := 0
	if startsBlank {
		if lastOwner == "" {
			return dnswire.RR{}, "", fmt.Errorf("blank owner with no previous record")
		}
		owner = lastOwner
	} else {
		owner, err = nameRelativeTo(fields[0], origin)
		if err != nil {
			return dnswire.RR{}, "", err
		}
		i = 1
	}
	ttl := defaultTTL
	class := dnswire.ClassIN
	// TTL and class may appear in either order before the type.
	for i < len(fields) {
		f := fields[i]
		if v, err := strconv.ParseUint(f, 10, 32); err == nil {
			ttl = uint32(v)
			i++
			continue
		}
		if f == "IN" || f == "CH" || f == "HS" {
			i++
			continue
		}
		break
	}
	if i >= len(fields) {
		return dnswire.RR{}, "", fmt.Errorf("missing RR type")
	}
	t, err := dnswire.ParseType(fields[i])
	if err != nil {
		return dnswire.RR{}, "", err
	}
	i++
	data, err := parsePresentationRData(t, fields[i:], origin)
	if err != nil {
		return dnswire.RR{}, "", err
	}
	return dnswire.RR{Name: owner, Class: class, TTL: ttl, Data: data}, owner, nil
}

func nameRelativeTo(s string, origin dnswire.Name) (dnswire.Name, error) {
	if s == "@" {
		return origin, nil
	}
	if strings.HasSuffix(s, ".") && !strings.HasSuffix(s, `\.`) {
		return dnswire.ParseName(s)
	}
	rel, err := dnswire.ParseName(s)
	if err != nil {
		return "", err
	}
	labels := append(rel.Labels(), origin.Labels()...)
	return dnswire.FromLabels(labels...)
}

// ParseRData parses the RDATA of a t record in the presentation syntax
// a master-file line gives it after its type, with relative names
// relative to origin. Fields are separated by whitespace; a trailing
// hex or base64 field may be split across several (RFC 4034 §5.3).
func ParseRData(t dnswire.Type, rdata string, origin dnswire.Name) (dnswire.RData, error) {
	return parsePresentationRData(t, strings.Fields(rdata), origin)
}

func parsePresentationRData(t dnswire.Type, f []string, origin dnswire.Name) (dnswire.RData, error) {
	need := func(n int) error {
		if len(f) < n {
			return fmt.Errorf("%s RDATA needs %d fields, have %d", t, n, len(f))
		}
		return nil
	}
	name := func(s string) (dnswire.Name, error) { return nameRelativeTo(s, origin) }
	u := func(s string, bits int) (uint64, error) { return strconv.ParseUint(s, 10, bits) }
	switch t {
	case dnswire.TypeA:
		if err := need(1); err != nil {
			return nil, err
		}
		a, err := netip.ParseAddr(f[0])
		if err != nil || !a.Is4() {
			return nil, fmt.Errorf("bad A address %q", f[0])
		}
		return dnswire.A{Addr: a}, nil
	case dnswire.TypeAAAA:
		if err := need(1); err != nil {
			return nil, err
		}
		a, err := netip.ParseAddr(f[0])
		if err != nil || !a.Is6() {
			return nil, fmt.Errorf("bad AAAA address %q", f[0])
		}
		return dnswire.AAAA{Addr: a}, nil
	case dnswire.TypeNS:
		if err := need(1); err != nil {
			return nil, err
		}
		n, err := name(f[0])
		if err != nil {
			return nil, err
		}
		return dnswire.NS{Host: n}, nil
	case dnswire.TypeCNAME:
		if err := need(1); err != nil {
			return nil, err
		}
		n, err := name(f[0])
		if err != nil {
			return nil, err
		}
		return dnswire.CNAME{Target: n}, nil
	case dnswire.TypePTR:
		if err := need(1); err != nil {
			return nil, err
		}
		n, err := name(f[0])
		if err != nil {
			return nil, err
		}
		return dnswire.PTR{Target: n}, nil
	case dnswire.TypeMX:
		if err := need(2); err != nil {
			return nil, err
		}
		pref, err := u(f[0], 16)
		if err != nil {
			return nil, err
		}
		n, err := name(f[1])
		if err != nil {
			return nil, err
		}
		return dnswire.MX{Preference: uint16(pref), Host: n}, nil
	case dnswire.TypeTXT:
		if err := need(1); err != nil {
			return nil, err
		}
		var strs []string
		for _, s := range f {
			strs = append(strs, strings.Trim(s, `"`))
		}
		return dnswire.TXT{Strings: strs}, nil
	case dnswire.TypeSOA:
		if err := need(7); err != nil {
			return nil, err
		}
		m, err := name(f[0])
		if err != nil {
			return nil, err
		}
		r, err := name(f[1])
		if err != nil {
			return nil, err
		}
		var vals [5]uint32
		for i := 0; i < 5; i++ {
			v, err := u(f[2+i], 32)
			if err != nil {
				return nil, err
			}
			vals[i] = uint32(v)
		}
		return dnswire.SOA{MName: m, RName: r, Serial: vals[0], Refresh: vals[1],
			Retry: vals[2], Expire: vals[3], Minimum: vals[4]}, nil
	case dnswire.TypeDNSKEY:
		if err := need(4); err != nil {
			return nil, err
		}
		flags, err := u(f[0], 16)
		if err != nil {
			return nil, err
		}
		proto, err := u(f[1], 8)
		if err != nil {
			return nil, err
		}
		alg, err := u(f[2], 8)
		if err != nil {
			return nil, err
		}
		key, err := base64.StdEncoding.DecodeString(strings.Join(f[3:], ""))
		if err != nil {
			return nil, err
		}
		return dnswire.DNSKEY{Flags: uint16(flags), Protocol: uint8(proto),
			Algorithm: dnswire.SecAlgorithm(alg), PublicKey: key}, nil
	case dnswire.TypeDS:
		if err := need(4); err != nil {
			return nil, err
		}
		tag, err := u(f[0], 16)
		if err != nil {
			return nil, err
		}
		alg, err := u(f[1], 8)
		if err != nil {
			return nil, err
		}
		dt, err := u(f[2], 8)
		if err != nil {
			return nil, err
		}
		digest, err := hex.DecodeString(strings.ToLower(strings.Join(f[3:], "")))
		if err != nil {
			return nil, err
		}
		return dnswire.DS{KeyTag: uint16(tag), Algorithm: dnswire.SecAlgorithm(alg),
			DigestType: dnswire.DigestType(dt), Digest: digest}, nil
	case dnswire.TypeNSEC3PARAM:
		if err := need(4); err != nil {
			return nil, err
		}
		alg, err := u(f[0], 8)
		if err != nil {
			return nil, err
		}
		flags, err := u(f[1], 8)
		if err != nil {
			return nil, err
		}
		iters, err := u(f[2], 16)
		if err != nil {
			return nil, err
		}
		var salt []byte
		if f[3] != "-" {
			if salt, err = hex.DecodeString(strings.ToLower(f[3])); err != nil {
				return nil, err
			}
		}
		return dnswire.NSEC3PARAM{HashAlg: dnswire.NSEC3HashAlg(alg), Flags: uint8(flags),
			Iterations: uint16(iters), Salt: salt}, nil
	default:
		return nil, fmt.Errorf("zone: no presentation parser for %s", t)
	}
}

// WriteMaster serializes the zone in master-file format.
func WriteMaster(w io.Writer, z *Zone) error {
	if _, err := fmt.Fprintf(w, "$ORIGIN %s\n$TTL %d\n", z.Apex, z.TTL); err != nil {
		return err
	}
	for _, rr := range z.Records() {
		if _, err := fmt.Fprintln(w, rr.String()); err != nil {
			return err
		}
	}
	return nil
}
