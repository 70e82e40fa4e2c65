//! Multiply-accumulate accounting per weight-bearing layer, computed
//! from the public `NetworkSpec` shapes: a convolution does one MAC per
//! weight per output position, a dense layer one per weight.

use dnnlife_nn::{LayerSpec, NetworkSpec};

/// MACs one image costs in `layer`.
pub fn layer_macs(layer: &LayerSpec) -> u64 {
    match *layer {
        LayerSpec::Conv {
            out_channels,
            in_channels,
            kernel,
            groups,
            output_positions,
            ..
        } => (out_channels * (in_channels / groups) * kernel * kernel * output_positions) as u64,
        LayerSpec::Fc {
            out_features,
            in_features,
            ..
        } => (out_features * in_features) as u64,
    }
}

/// MACs one image costs in the whole network.
pub fn network_macs(spec: &NetworkSpec) -> u64 {
    spec.layers().iter().map(layer_macs).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn custom_mnist_macs_match_hand_counts() {
        let spec = NetworkSpec::custom_mnist();
        let per_layer: Vec<(&str, u64)> = spec
            .layers()
            .iter()
            .map(|l| (l.name(), layer_macs(l)))
            .collect();
        assert_eq!(
            per_layer,
            vec![
                ("conv1", 16 * 5 * 5 * 24 * 24),    // 230,400
                ("conv2", 50 * 16 * 5 * 5 * 8 * 8), // 1,280,000
                ("fc1", 256 * 800),                 // 204,800
                ("fc2", 10 * 256),                  // 2,560
            ]
        );
        assert_eq!(network_macs(&spec), 1_717_760);
    }

    #[test]
    fn shape_count_agrees_with_the_spec_for_every_network() {
        for spec in [
            NetworkSpec::custom_mnist(),
            NetworkSpec::alexnet(),
            NetworkSpec::vgg16(),
        ] {
            for layer in spec.layers() {
                assert_eq!(layer_macs(layer), layer.macs(), "{}", layer.name());
            }
            assert_eq!(network_macs(&spec), spec.macs(), "{}", spec.name());
        }
    }
}
