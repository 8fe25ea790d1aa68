package main

import (
	"fmt"
	"math"
	"math/rand"

	pastis "repro"
	"repro/internal/synth"
)

// generate builds the benchmark's Metaclust-like dataset of exactly n
// sequences. It is synth.DefaultMetaclustLike with the two distributions
// that decide the amount of work taken at fixed quantiles instead of being
// sampled: family sizes (2 + geometric, mean 10) and ancestor lengths
// (log-uniform 100-600). pastis.GenerateMetaclustLike(1000, seed) varies
// between 907 and 1109 sequences and by 2.5x in aligned cells across seeds 1-5;
// here every seed has the same family-size and length profile, and the seed
// decides the residues, the mutations and the record order. That is what
// lets ten runs on ten seeds agree within a few percent.
func generate(n int, seed int64) (*pastis.Dataset, error) {
	base := synth.DefaultMetaclustLike(n, seed)
	nFam := base.NumFamilies
	out := &pastis.Dataset{NumFam: nFam}

	// Pair the i-th size quantile with a length quantile through a fixed
	// stride permutation, so size and length are uncorrelated in every seed
	// alike.
	stride := coprimeStride(nFam)
	for fam := 0; fam < nFam && len(out.Records) < n; fam++ {
		size := familySize((float64(fam)+0.5)/float64(nFam), base.MembersMean)
		if rest := n - len(out.Records); size > rest {
			size = rest
		}
		length := quantileLen((float64(fam*stride%nFam)+0.5)/float64(nFam), base.MinLen, base.MaxLen)
		recs, err := oneFamily(base, fam, size, length)
		if err != nil {
			return nil, err
		}
		for m, r := range recs {
			r.ID = fmt.Sprintf("f%04d_m%03d", fam, m)
			r.Desc = fmt.Sprintf("family=%d", fam)
			out.Records = append(out.Records, r)
			out.Families = append(out.Families, fam)
		}
	}

	// The rest are unrelated noise sequences, lengths again at quantiles.
	noise := n - len(out.Records)
	for s := 0; s < noise; s++ {
		cfg := base
		cfg.Seed = deriveSeed(seed, -1-s, 0)
		cfg.NumFamilies, cfg.Singletons = 0, 1
		cfg.MinLen = quantileLen((float64(s)+0.5)/float64(noise), base.MinLen, base.MaxLen)
		cfg.MaxLen = cfg.MinLen
		d, err := synth.Generate(cfg)
		if err != nil {
			return nil, err
		}
		r := d.Records[0]
		r.ID = fmt.Sprintf("noise_%05d", s)
		out.Records = append(out.Records, r)
		out.Families = append(out.Families, -1)
	}

	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out.Records), func(i, j int) {
		out.Records[i], out.Records[j] = out.Records[j], out.Records[i]
		out.Families[i], out.Families[j] = out.Families[j], out.Families[i]
	})
	return out, nil
}

// oneFamily asks synth for a single family around an ancestor of the given
// length and keeps its first size members. synth samples the family size, so
// the request aims high and is repeated on the next derived seed when the
// family came out too small; members are independent mutations of the
// ancestor, so a prefix of them is a family of the smaller size.
func oneFamily(base synth.Config, fam, size, length int) ([]pastis.Record, error) {
	cfg := base
	cfg.NumFamilies, cfg.Singletons = 1, 0
	cfg.MembersMean = float64(4 * size)
	cfg.MinLen, cfg.MaxLen = length, length
	for attempt := 0; attempt < 64; attempt++ {
		cfg.Seed = deriveSeed(base.Seed, fam, attempt)
		d, err := synth.Generate(cfg)
		if err != nil {
			return nil, err
		}
		if len(d.Records) >= size {
			return d.Records[:size], nil
		}
	}
	return nil, fmt.Errorf("benchmark: no family of %d members after 64 attempts", size)
}

// familySize is the u-quantile of synth's family-size law: 2 plus a
// geometric count with mean mean-2.
func familySize(u, mean float64) int {
	p := 1 / (mean - 2 + 1)
	return 2 + int(math.Log(1-u)/math.Log(1-p))
}

// quantileLen is the u-quantile of synth's log-uniform length law.
func quantileLen(u float64, minLen, maxLen int) int {
	lo, hi := math.Log(float64(minLen)), math.Log(float64(maxLen))
	return int(math.Exp(lo + u*(hi-lo)))
}

// coprimeStride returns a stride near n/φ that is coprime to n, so that
// i*stride mod n visits every quantile once in a scattered order.
func coprimeStride(n int) int {
	for s := int(float64(n)*0.618) + 1; s < 2*n+2; s++ {
		if gcd(s, n) == 1 {
			return s
		}
	}
	return 1
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// deriveSeed mixes the run seed with a stream index and an attempt number
// (splitmix64 finalizer), so each synth call gets its own generator.
func deriveSeed(seed int64, stream, attempt int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(int64(stream))*0xBF58476D1CE4E5B9 + uint64(attempt)*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}
