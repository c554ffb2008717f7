package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVecBasicOps(t *testing.T) {
	a := V(1, 2, 3)
	b := V(4, -5, 6)
	if got := a.Add(b); got != V(5, -3, 9) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); got != V(-3, 7, -3) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Mul(b); got != V(4, -10, 18) {
		t.Errorf("Mul = %v", got)
	}
	if got := a.Scale(2); got != V(2, 4, 6) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); got != 4-10+18 {
		t.Errorf("Dot = %v", got)
	}
}

func TestVecCrossOrthogonal(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := V(clamp(ax), clamp(ay), clamp(az))
		b := V(clamp(bx), clamp(by), clamp(bz))
		c := a.Cross(b)
		// Cross product is orthogonal to both inputs (up to round-off
		// relative to magnitudes).
		tol := 1e-9 * (1 + a.Norm()*b.Norm()*(a.Norm()+b.Norm()))
		return math.Abs(c.Dot(a)) <= tol && math.Abs(c.Dot(b)) <= tol
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestVecNormalize(t *testing.T) {
	v := V(3, 4, 0).Normalize()
	if math.Abs(v.Norm()-1) > 1e-12 {
		t.Errorf("normalized length = %v", v.Norm())
	}
	if z := (Vec3{}).Normalize(); z != (Vec3{}) {
		t.Errorf("zero vector should normalize to itself, got %v", z)
	}
}

func TestVecComponentAccess(t *testing.T) {
	v := V(7, 8, 9)
	for i, want := range []float64{7, 8, 9} {
		if got := v.Component(i); got != want {
			t.Errorf("Component(%d) = %v, want %v", i, got, want)
		}
	}
	if got := v.SetComponent(1, -1); got != V(7, -1, 9) {
		t.Errorf("SetComponent = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Component(3) should panic")
		}
	}()
	v.Component(3)
}

func TestVecMinMaxAbs(t *testing.T) {
	a, b := V(1, -2, 5), V(0, 3, -7)
	if got := a.Min(b); got != V(0, -2, -7) {
		t.Errorf("Min = %v", got)
	}
	if got := a.Max(b); got != V(1, 3, 5) {
		t.Errorf("Max = %v", got)
	}
	if got := b.Abs(); got != V(0, 3, 7) {
		t.Errorf("Abs = %v", got)
	}
	if got := a.MaxComponent(); got != 5 {
		t.Errorf("MaxComponent = %v", got)
	}
}

func TestMat3MulVecIdentity(t *testing.T) {
	v := V(1, 2, 3)
	if got := Identity3().MulVec(v); got != v {
		t.Errorf("I·v = %v", got)
	}
}

func TestMat3MulAssociativeWithVec(t *testing.T) {
	f := func(vals [9]float64, wals [9]float64, x, y, z float64) bool {
		var m, n Mat3
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				m[i][j] = clamp(vals[3*i+j])
				n[i][j] = clamp(wals[3*i+j])
			}
		}
		v := V(clamp(x), clamp(y), clamp(z))
		lhs := m.Mul(n).MulVec(v)
		rhs := m.MulVec(n.MulVec(v))
		return lhs.ApproxEqual(rhs, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func clamp(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1000)
}

func TestMat3Det(t *testing.T) {
	if got := Identity3().Det(); got != 1 {
		t.Errorf("det(I) = %v", got)
	}
	m := Mat3{{2, 0, 0}, {0, 3, 0}, {0, 0, 4}}
	if got := m.Det(); got != 24 {
		t.Errorf("det(diag(2,3,4)) = %v", got)
	}
	r := RotationZ(0.7)
	if math.Abs(r.Det()-1) > 1e-12 {
		t.Errorf("det(Rz) = %v", r.Det())
	}
}

func TestRotationMatricesOrthogonal(t *testing.T) {
	for _, m := range []Mat3{RotationY(1.1), RotationZ(-2.0)} {
		p := m.Mul(m.Transpose())
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(p[i][j]-want) > 1e-12 {
					t.Errorf("m·mᵀ[%d][%d] = %v", i, j, p[i][j])
				}
			}
		}
	}
}

func TestAffineComposeApply(t *testing.T) {
	a := Translate(V(1, 0, 0))
	b := Rotate(RotationZ(math.Pi / 2))
	// (a∘b)(x) = a(b(x)): rotate (1,0,0) to (0,1,0), then translate.
	got := a.Compose(b).Apply(V(1, 0, 0))
	if !got.ApproxEqual(V(1, 1, 0), 1e-12) {
		t.Errorf("compose apply = %v", got)
	}
}

func TestAffineInverse(t *testing.T) {
	a := Translate(V(1, 2, 3)).Compose(Rotate(RotationY(0.8))).Compose(ScaleAffine(V(2, 3, 0.5)))
	inv := a.Inverse()
	pts := []Vec3{{0, 0, 0}, {1, 1, 1}, {-4, 2, 9}}
	for _, p := range pts {
		back := inv.Apply(a.Apply(p))
		if !back.ApproxEqual(p, 1e-9) {
			t.Errorf("inverse round-trip %v = %v", p, back)
		}
	}
}

func TestAffineInverseSingularPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for singular transform")
		}
	}()
	ScaleAffine(V(1, 0, 1)).Inverse()
}
