"""Point cloud to 2D image mappings, a small numpy classifier, and an
FGSM harness that probes each mapping's gradient topology."""

from .attack import (AttackReport, BLOCKED_GRADIENT, FGSMResult, asr,
                     attack_suite, fgsm, input_point_gradient)
from .cloud import (Mesh, OffParseError, PointCloud, SYNTH_KINDS, augment,
                    load_off, normalize_unit, read_xyz, sample_surface,
                    synth_shape, write_xyz)
from .graphdraw import (ClusterHierarchy, Graph, GridEmbedding,
                        balanced_kmeans, delaunay3, delaunay_oracle,
                        draw_image, grid_embed, map_graphdraw)
from .imagefile import write_pgm, write_ppm
from .net import (TinyNet, TrainConfig, adam_step, evaluate, forward,
                  load_checkpoint, loss_and_grad, lr_at, predict,
                  save_checkpoint, train)
from .pipeline import PIPELINE_NAMES, Pipeline, make_pipeline
from .project import (GradPath, MappedImage, Scatter, basic_project,
                      basic_project_leaky, remap_frozen)
from .render import (AdaINParams, DEFAULT_SCENE_CONTROL, ZBufferConfig,
                     adain, adain_backward, positional_embedding, zbuffer)

__version__ = "0.1.0"
