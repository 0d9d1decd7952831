package addr

import (
	"testing"
	"testing/quick"
)

func TestAlign(t *testing.T) {
	cases := []struct {
		a, ps, down, up uint64
	}{
		{0, PageSize4K, 0, 0},
		{1, PageSize4K, 0, PageSize4K},
		{PageSize4K, PageSize4K, PageSize4K, PageSize4K},
		{PageSize4K + 1, PageSize4K, PageSize4K, 2 * PageSize4K},
		{PageSize2M - 1, PageSize2M, 0, PageSize2M},
		{3 * PageSize2M, PageSize2M, 3 * PageSize2M, 3 * PageSize2M},
	}
	for _, c := range cases {
		if got := AlignDown(c.a, c.ps); got != c.down {
			t.Errorf("AlignDown(%#x, %#x) = %#x, want %#x", c.a, c.ps, got, c.down)
		}
		if got := AlignUp(c.a, c.ps); got != c.up {
			t.Errorf("AlignUp(%#x, %#x) = %#x, want %#x", c.a, c.ps, got, c.up)
		}
	}
}

func TestAlignProperties(t *testing.T) {
	f := func(a uint32, shift uint8) bool {
		ps := uint64(1) << (12 + shift%10) // 4K..2M
		x := uint64(a)
		d, u := AlignDown(x, ps), AlignUp(x, ps)
		return d <= x && x <= u && IsAligned(d, ps) && IsAligned(u, ps) && u-d < 2*ps
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPageCount(t *testing.T) {
	if got := PageCount(0, PageSize4K); got != 0 {
		t.Errorf("PageCount(0) = %d", got)
	}
	if got := PageCount(1, PageSize4K); got != 1 {
		t.Errorf("PageCount(1) = %d", got)
	}
	if got := PageCount(PageSize4K+1, PageSize4K); got != 2 {
		t.Errorf("PageCount(4K+1) = %d", got)
	}
	if got := PageCount(10*PageSize2M, PageSize2M); got != 10 {
		t.Errorf("PageCount(10*2M) = %d", got)
	}
}

func TestRangeGeometry(t *testing.T) {
	r := Range{Start: 100, Size: 50}
	if r.End() != 150 {
		t.Error("End")
	}
	if !r.Contains(100) || !r.Contains(149) || r.Contains(150) || r.Contains(99) {
		t.Error("Contains boundaries wrong")
	}
	if !r.Overlaps(Range{Start: 149, Size: 1}) {
		t.Error("should overlap at last byte")
	}
	if r.Overlaps(Range{Start: 150, Size: 10}) {
		t.Error("adjacent ranges must not overlap")
	}
	if r.Overlaps(Range{Start: 0, Size: 100}) {
		t.Error("preceding adjacent range must not overlap")
	}
	if !r.ContainsRange(Range{Start: 110, Size: 20}) {
		t.Error("ContainsRange inner")
	}
	if r.ContainsRange(Range{Start: 110, Size: 100}) {
		t.Error("ContainsRange overflow")
	}
}

func TestRangeOverlapSymmetric(t *testing.T) {
	f := func(s1, z1, s2, z2 uint16) bool {
		a := Range{Start: uint64(s1), Size: uint64(z1%512) + 1}
		b := Range{Start: uint64(s2), Size: uint64(z2%512) + 1}
		return a.Overlaps(b) == b.Overlaps(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTypedRangeConstructors(t *testing.T) {
	g := NewGVARange(GVA(0x1000), 0x2000)
	if g.Start != 0x1000 || g.Size != 0x2000 {
		t.Error("NewGVARange")
	}
	if NewGPARange(GPA(1), 2).Start != 1 {
		t.Error("NewGPARange")
	}
	if NewHPARange(HPA(5), 6).End() != 11 {
		t.Error("NewHPARange")
	}
	if NewDARange(DA(7), 8).End() != 15 {
		t.Error("NewDARange")
	}
}

func TestStringers(t *testing.T) {
	if GVA(0x10).String() != "GVA(0x10)" {
		t.Error(GVA(0x10).String())
	}
	if OwnerGPU.String() != "gpu" || OwnerHostMemory.String() != "host-memory" {
		t.Error("MemoryOwner strings")
	}
	if (Range{Start: 0, Size: 16}).String() != "[0x0,0x10)" {
		t.Error((Range{Start: 0, Size: 16}).String())
	}
}
