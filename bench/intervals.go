package main

import "sort"

// iv is a half-open time interval [lo, hi) in nanoseconds since the
// trace began.
type iv struct{ lo, hi int64 }

// ivset is a set of instants held as sorted, disjoint, non-empty
// intervals. A layer's spans become an ivset; self time is measured by
// subtracting the children's ivset from the parent's.
type ivset []iv

// unionOf merges arbitrary (unsorted, overlapping) intervals.
func unionOf(in []iv) ivset {
	s := make([]iv, 0, len(in))
	for _, v := range in {
		if v.hi > v.lo {
			s = append(s, v)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	out := s[:0]
	for _, v := range s {
		if n := len(out); n > 0 && v.lo <= out[n-1].hi {
			if v.hi > out[n-1].hi {
				out[n-1].hi = v.hi
			}
			continue
		}
		out = append(out, v)
	}
	return ivset(out)
}

func (a ivset) union(b ivset) ivset {
	return unionOf(append(append([]iv(nil), a...), b...))
}

// intersect returns the instants in both sets.
func (a ivset) intersect(b ivset) ivset {
	var out ivset
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if lo < hi {
			out = append(out, iv{lo, hi})
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// subtract returns the instants of a that are not in b.
func (a ivset) subtract(b ivset) ivset {
	var out ivset
	j := 0
	for _, v := range a {
		lo := v.lo
		for j < len(b) && b[j].hi <= lo {
			j++
		}
		for k := j; k < len(b) && b[k].lo < v.hi; k++ {
			if b[k].lo > lo {
				out = append(out, iv{lo, b[k].lo})
			}
			lo = max(lo, b[k].hi)
		}
		if lo < v.hi {
			out = append(out, iv{lo, v.hi})
		}
	}
	return out
}

// within measures how much of [lo, hi) the set covers.
func (a ivset) within(lo, hi int64) int64 {
	i := sort.Search(len(a), func(i int) bool { return a[i].hi > lo })
	var total int64
	for ; i < len(a) && a[i].lo < hi; i++ {
		total += min(a[i].hi, hi) - max(a[i].lo, lo)
	}
	return total
}

// selfTime is a span's duration minus the part of it its children
// cover. Children are a set, so where they overlap each other they
// count once, and where they stick out of the parent not at all.
func selfTime(parent iv, children ivset) int64 {
	return (parent.hi - parent.lo) - children.within(parent.lo, parent.hi)
}
