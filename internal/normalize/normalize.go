// Package normalize implements the invariance machinery of paper §3.2:
// objects are stored translation- and scale-normalized (with the per-axis
// scale factors retained so scaling invariance can be toggled at query
// time), and 90°-rotation / reflection invariance is realized by taking
// the minimum distance over the 24 (48) cube symmetries. A principal-axis
// transform is provided for applications not confined to 90°-rotations.
package normalize

import (
	"github.com/voxset/voxset/internal/csg"
	"github.com/voxset/voxset/internal/geom"
	"github.com/voxset/voxset/internal/voxel"
)

// Info records what normalization removed from an object so that it can be
// taken into account again at query time (paper §3.2: "we store the
// scaling factors for each of the three dimensions").
type Info struct {
	// Center is the world-space center of the object before translation
	// normalization.
	Center geom.Vec3
	// Extent holds the world-space extents of the object's bounding box
	// before scale normalization — the per-axis scale factors.
	Extent geom.Vec3
}

// VoxelizeNormalized voxelizes the solid translation- and scale-
// normalized: the object's bounding box is centered in a cubic r×r×r grid
// and scaled so its largest extent spans the full grid. The returned Info
// holds the removed translation and the original extents.
//
// Solid bounds may be loose (e.g. the AABB of a rotated AABB); the
// normalization therefore tightens them with a coarse sampling pass first
// so that equal shapes at different orientations normalize consistently.
func VoxelizeNormalized(s csg.Solid, r int) (*voxel.Grid, Info) {
	b := TightBounds(s)
	info := Info{Center: b.Center(), Extent: b.Size()}
	g := voxel.VoxelizeSolid(s, b, r)
	return g, info
}

// VoxelizeNormalized2 voxelizes the solid at two resolutions sharing a
// single bounds-tightening pass — the coarse sampling in TightBounds
// costs more than the final voxelization, so extraction pipelines that
// need both a histogram-resolution and a cover-resolution grid should
// use this instead of two VoxelizeNormalized calls. Results are
// identical to calling VoxelizeNormalized twice.
func VoxelizeNormalized2(s csg.Solid, r1, r2 int) (*voxel.Grid, *voxel.Grid, Info) {
	b := TightBounds(s)
	info := Info{Center: b.Center(), Extent: b.Size()}
	return voxel.VoxelizeSolid(s, b, r1), voxel.VoxelizeSolid(s, b, r2), info
}

// TightBounds estimates a tight axis-aligned bounding box of the solid by
// sampling it on a coarse grid over its declared (possibly loose) bounds.
// The result is the world box of the occupied coarse cells, padded by one
// cell. If the solid samples empty, the declared bounds are returned.
//
// The occupied box is found with directional plane sweeps instead of a
// full voxelization (voxel.SampleOccupiedBounds), which tests the same
// cell centers but skips the box interior entirely.
func TightBounds(s csg.Solid) geom.AABB {
	const n = 48
	coarse := voxel.FitCube(s.Bounds(), n)
	mn, mx, ok := coarse.SampleOccupiedBounds(s)
	if !ok {
		return s.Bounds()
	}
	cell := coarse.CellSize
	lo := coarse.Origin.Add(geom.V(float64(mn[0])-0.5, float64(mn[1])-0.5, float64(mn[2])-0.5).Scale(cell))
	hi := coarse.Origin.Add(geom.V(float64(mx[0])+1.5, float64(mx[1])+1.5, float64(mx[2])+1.5).Scale(cell))
	return geom.Box(lo, hi)
}

// PrincipalAxes returns the principal-axis rotation of the occupied voxel
// centers of g: a rotation matrix whose rows are the eigenvectors of the
// voxel covariance matrix in descending eigenvalue order (det +1). For
// degenerate clouds (fewer than 2 voxels) the identity is returned.
func PrincipalAxes(g *voxel.Grid) geom.Mat3 {
	pts := voxel.OccupiedCenters(g)
	if len(pts) < 2 {
		return geom.Identity3()
	}
	_, cov := geom.Covariance(pts)
	_, vecs := geom.SymEigen3(cov)
	// Eigenvectors are the columns of vecs; the PCA alignment rotation is
	// the transpose (world → principal frame).
	rot := vecs.Transpose()
	// Force a proper rotation: flip the last axis if det < 0.
	if rot.Det() < 0 {
		for j := 0; j < 3; j++ {
			rot[2][j] = -rot[2][j]
		}
	}
	return rot
}

// PCAVoxelize2 voxelizes the solid in its principal-axis frame at two
// resolutions: the solid is rotated so its principal axes align with
// x ≥ y ≥ z variance order, then voxelized translation/scale-normalized
// with one bounds-tightening pass (see VoxelizeNormalized2). This yields
// full rotation invariance (up to PCA sign ambiguity, which the
// cube-symmetry search at query time resolves).
func PCAVoxelize2(s csg.Solid, r1, r2 int) (*voxel.Grid, *voxel.Grid, Info) {
	coarse := voxel.VoxelizeSolid(s, s.Bounds(), 24)
	rot := PrincipalAxes(coarse)
	rotated := csg.Transform(s, geom.Rotate(rot))
	return VoxelizeNormalized2(rotated, r1, r2)
}
