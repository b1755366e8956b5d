"""Pointing-gesture geometry from face/hand detections with sparse depth.

Per-frame face/hand bounding boxes plus sparse depth samples go in; 3D
pointing vectors, pitch/yaw angles, and ground-plane goal points come out.
Includes depth outlier rejection (center-circle mask and 1-D DBSCAN),
Kalman smoothing of detections, a covariance gate for goal commitment, and
a synthetic RGB-D scene simulator with exact ground truth.
"""

__version__ = "0.1.0"
