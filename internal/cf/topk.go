package cf

import "slices"

// keepTop returns the k first elements of all under the strict total
// order cmp, in order, reusing all's storage — the same slice a full
// sort truncated to k would yield, without sorting what is dropped. A
// neighborhood keeps k of every positive-similarity peer (≈ 2 000 raters
// for k = 50), so nearly every element costs one comparison against the
// current k-th.
func keepTop[T any](all []T, k int, cmp func(a, b T) int) []T {
	top := all[:min(k, len(all))]
	slices.SortFunc(top, cmp)
	for _, e := range all[len(top):] {
		if cmp(e, top[k-1]) >= 0 {
			continue
		}
		i, _ := slices.BinarySearchFunc(top, e, cmp)
		copy(top[i+1:], top[i:k-1])
		top[i] = e
	}
	return top
}
