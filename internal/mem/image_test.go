package mem

import (
	"math/rand"
	"testing"
)

// TestImageRoundTrip: capture → mutate → restore must reproduce the
// captured contents exactly, against a Clone taken at capture time as the
// oracle.
func TestImageRoundTrip(t *testing.T) {
	m := New()
	m.Write(0x1000, 0xDEADBEEF, 4)
	m.Write(0x40000, 0x1122334455667788, 8)
	m.BeginImaging()

	img1 := m.CaptureImage()
	want1 := m.Clone()

	m.Write(0x1000, 0xCAFE, 2)    // modify an existing page
	m.Write(0x80000, 0xFF, 1)     // create a new page
	m.StoreByte(0x40000+8191, 42) // last byte of a page
	img2 := m.CaptureImage()
	want2 := m.Clone()

	m.RestoreImage(img1, img2)
	if !m.Equal(want1) {
		t.Error("restore to img1 (prev=img2) did not reproduce capture-1 contents")
	}
	m.RestoreImage(img2, img1)
	if !m.Equal(want2) {
		t.Error("restore to img2 (prev=img1) did not reproduce capture-2 contents")
	}
	m.RestoreImage(img1, nil)
	if !m.Equal(want1) {
		t.Error("restore to img1 (prev=nil) did not reproduce capture-1 contents")
	}
}

// TestImageTransfersAcrossMemories: an image captured on one Memory must
// materialize on a completely different Memory, including zeroing that
// memory's unrelated resident pages.
func TestImageTransfersAcrossMemories(t *testing.T) {
	src := New()
	src.Write(0x1000, 0xABCD, 2)
	src.BeginImaging()
	img := src.CaptureImage()
	want := src.Clone()

	dst := New()
	dst.Write(0x1000, 0x9999, 2) // same page, different contents
	dst.Write(0x200000, 0x77, 1) // page the image does not have
	dst.RestoreImage(img, nil)
	if !dst.Equal(want) {
		t.Error("cross-memory restore did not reproduce the source contents")
	}
}

// TestImagePageSharing: pages untouched between captures must share one
// frozen copy (the copy-on-write property that keeps a 300-checkpoint
// campaign's image pool O(pages dirtied), not O(footprint × checkpoints)).
func TestImagePageSharing(t *testing.T) {
	m := New()
	m.Write(0x1000, 1, 8)
	m.Write(0x10000, 2, 8)
	m.BeginImaging()
	img1 := m.CaptureImage()
	m.Write(0x1000, 3, 8) // dirty only the first page
	img2 := m.CaptureImage()

	if img1.pages[0x10000>>PageShift] != img2.pages[0x10000>>PageShift] {
		t.Error("clean page is not shared between consecutive captures")
	}
	if img1.pages[0x1000>>PageShift] == img2.pages[0x1000>>PageShift] {
		t.Error("dirty page is shared between captures; img1 would see img2's write")
	}
	if img1.PageCount() != 2 || img2.PageCount() != 2 {
		t.Errorf("page counts = %d, %d; want 2, 2", img1.PageCount(), img2.PageCount())
	}
}

// TestImageRestoreZeroesVanishedPages: moving to an image captured before
// a page existed must zero that page — absent pages read as zero, so a
// stale resident page would silently corrupt the restored state.
func TestImageRestoreZeroesVanishedPages(t *testing.T) {
	m := New()
	m.Write(0x1000, 0x11, 1)
	m.BeginImaging()
	early := m.CaptureImage()
	m.Write(0x90000, 0x55, 1) // page born after the early capture
	late := m.CaptureImage()

	m.RestoreImage(early, late)
	if got := m.Read(0x90000, 1); got != 0 {
		t.Errorf("vanished page reads %#x after restore, want 0", got)
	}
	if got := m.Read(0x1000, 1); got != 0x11 {
		t.Errorf("surviving page reads %#x, want 0x11", got)
	}
}

// TestImageRollbackThenRestore mimics the campaign worker's steady state:
// trial writes rolled back by the undo log, then a pointer-diffed hop to
// another checkpoint's image. Pages created during the trial (resident but
// all-zero after rollback) must not confuse the prev-diffed restore.
func TestImageRollbackThenRestore(t *testing.T) {
	m := New()
	m.Write(0x1000, 0xA1, 1)
	m.BeginImaging()
	ckA := m.CaptureImage()
	m.Write(0x1000, 0xB2, 1)
	m.Write(0x5000, 0xB3, 1)
	ckB := m.CaptureImage()
	wantB := m.Clone()

	// Back to A, then run a "trial" that touches a brand-new page and is
	// rolled back.
	m.RestoreImage(ckA, ckB)
	m.BeginUndo()
	m.Write(0x300000, 0xEE, 1)
	m.Write(0x1000, 0xFF, 1)
	m.Rollback()

	// Hop to B with A as prev: must land exactly on B's contents.
	m.RestoreImage(ckB, ckA)
	if !m.Equal(wantB) {
		t.Error("hop after rolled-back trial did not land on the target image")
	}
}

// TestCaptureWithoutImagingPanics pins the lifecycle contract.
func TestCaptureWithoutImagingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CaptureImage without BeginImaging did not panic")
		}
	}()
	New().CaptureImage()
}

// TestEndImagingKeepsImages: EndImaging releases tracking state but
// previously captured images stay valid.
func TestEndImagingKeepsImages(t *testing.T) {
	m := New()
	m.Write(0x2000, 0x42, 1)
	m.BeginImaging()
	img := m.CaptureImage()
	want := m.Clone()
	m.EndImaging()

	m.Write(0x2000, 0x43, 1)
	m.RestoreImage(img, nil)
	if !m.Equal(want) {
		t.Error("image captured before EndImaging no longer restores correctly")
	}
}

// TestImageReleaseReuse: released images and their unshared page copies
// are reused by later captures, and reuse never disturbs an image still
// held. Random writes, captures and releases; every held image must
// restore to the contents cloned at its capture, which fails if a copy it
// holds was reused for another version of its page.
func TestImageReleaseReuse(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New()
		m.BeginImaging()
		type held struct {
			img  *Image
			want *Memory
		}
		var live []held
		for step := 0; step < 200; step++ {
			for n := rng.Intn(4); n > 0; n-- {
				m.Write(uint64(rng.Intn(6))<<PageShift|uint64(rng.Intn(PageSize/8))*8, rng.Uint64(), 8)
			}
			live = append(live, held{m.CaptureImage(), m.Clone()})
			for len(live) > 0 && rng.Intn(3) > 0 {
				i := rng.Intn(len(live))
				m.ReleaseImage(live[i].img)
				live = append(live[:i], live[i+1:]...)
			}
			for _, h := range live {
				dst := New()
				dst.RestoreImage(h.img, nil)
				if !dst.Equal(h.want) || h.img.Digest() != h.want.Digest() {
					t.Fatalf("seed %d step %d: a held image no longer restores its capture", seed, step)
				}
			}
		}
	}

	// Once a capture-release cycle has sized the spare pool, it allocates
	// nothing.
	m := New()
	m.Write(0x1000, 1, 8)
	m.Write(0x10000, 2, 8)
	m.BeginImaging()
	prev := m.CaptureImage()
	v := uint64(3)
	cycle := func() {
		m.Write(0x1000, v, 8)
		v++
		img := m.CaptureImage()
		m.ReleaseImage(prev)
		prev = img
	}
	cycle()
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("a steady capture-release cycle allocates %.1f times, want 0", a)
	}
}
