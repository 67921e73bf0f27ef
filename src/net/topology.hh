/**
 * @file
 * Network base class and topology factory.
 *
 * A Network owns the routers and channels of one interconnect and
 * exposes, per node, an injection channel (NIC -> network) and an
 * ejection channel (network -> NIC). All concrete topologies of the
 * paper are provided: 2-D/3-D mesh and torus, full 4-ary fat tree
 * (cut-through or store-and-forward), CM-5-style reduced fat tree,
 * butterfly, and multibutterfly.
 */

#ifndef NIFDY_NET_TOPOLOGY_HH
#define NIFDY_NET_TOPOLOGY_HH

#include <memory>
#include <string>
#include <vector>

#include "net/router.hh"
#include "sim/kernel.hh"

namespace nifdy
{

/** Static parameters shared by all topologies. */
struct NetworkParams
{
    int numNodes = 64;
    /** Virtual channels per logical network class. */
    int vcsPerClass = 1;
    /** Flit buffer depth per VC, in flits. */
    int bufDepth = 2;
    /** Flit size in bytes (the paper uses one 32-bit word). */
    int flitBytes = 4;
    /** Physical link bandwidth in bits per cycle. */
    int linkBits = 8;
    /** Channel pipeline latency in cycles. */
    int channelLatency = 1;
    /** Store-and-forward switching (whole packet buffered per hop). */
    bool storeAndForward = false;
    /** Strict time multiplexing of the two logical nets (CM-5). */
    bool timeSliced = false;
    /** Per-VC flit buffer depth on the NIC's ejection side. */
    int ejectDepth = 2;
    /** RNG seed for adaptive arbitration. */
    std::uint64_t seed = 1;

    //! @name Fault injection (paper Section 1.1: "faults in the
    //! network may restrict the available bandwidth")
    //! @{
    /** Fraction of internal network links running degraded. */
    double degradedFraction = 0.0;
    /** Bandwidth divisor applied to a degraded link. */
    int degradeFactor = 4;
    //! @}

    //! @name Topology-specific knobs
    //! @{
    std::vector<int> dims;        //!< mesh/torus dimension sizes
    bool wrap = false;            //!< torus wraparound
    /** Minimal adaptive routing with a DOR escape VC (mesh only,
     * the Section 6.3 experiment). */
    bool adaptiveRouting = false;
    std::vector<int> upArity;     //!< fat tree parents per level
    int radix = 4;                //!< butterfly radix
    int dilation = 1;             //!< butterfly dilation
    //! @}

    /** Cycles to serialize one flit on a network link. */
    int cyclesPerFlit() const
    {
        return (flitBytes * 8 + linkBits - 1) / linkBits;
    }
};

/**
 * An interconnection network: routers, channels, and per-node
 * attachment points.
 */
class Network
{
  public:
    /** Per-node attachment: where a NIC plugs in. */
    struct NodePorts
    {
        Channel *inject = nullptr; //!< NIC pushes flits here
        Channel *eject = nullptr;  //!< NIC pops flits here
        /** Router-side per-VC buffer depth (NIC's credit limit). */
        int injectDepth = 0;
    };

    explicit Network(const NetworkParams &params) : params_(params) {}
    virtual ~Network() = default;
    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    int numNodes() const { return params_.numNodes; }
    const NetworkParams &params() const { return params_; }

    const NodePorts &nodePorts(NodeId n) const { return ports_.at(n); }

    /** Register every router with the simulation kernel and wire
     * every channel to its probe. */
    void addToKernel(Kernel &kernel);

    /** Human-readable topology name. */
    virtual std::string name() const = 0;

    /** Hop distance between two nodes (reporting / tuning only). */
    virtual int distance(NodeId a, NodeId b) const = 0;

    /** Average hop distance over all src != dst pairs. */
    double averageDistance() const;
    int maxDistance() const;

    /** Router flit-buffer capacity per node (network volume). */
    double volumeFlitsPerNode() const;

    /** Total flits moved through all switches. */
    std::uint64_t totalFlitsSwitched() const;

    /** Flits buffered in routers right now (drain checks). */
    int totalBufferedFlits() const;

    /** Flits in flight inside channels right now (drain checks). */
    int totalInFlightFlits() const;

    /** Nothing buffered or moving anywhere in the fabric. */
    bool quiescent() const
    {
        return totalBufferedFlits() == 0 && totalInFlightFlits() == 0;
    }

    int numRouters() const { return static_cast<int>(routers_.size()); }
    Router &router(int i) { return *routers_.at(i); }

    /** All channels, including NIC attach links (audit layer). */
    int numChannels() const
    {
        return static_cast<int>(channels_.size());
    }
    Channel &channelAt(int i) { return *channels_.at(i); }

    /** Internal links built degraded (fault injection). */
    int degradedLinks() const { return degradedLinks_; }

    //! @name Internal (router-to-router) links, in construction
    //! order; stable fault-plan addressing excludes NIC attach links.
    //! @{
    int numInternalChannels() const
    {
        return static_cast<int>(internalIdx_.size());
    }
    Channel &internalChannel(int i)
    {
        return *channels_.at(internalIdx_.at(i));
    }
    //! @}

  protected:
    Channel *newChannel();
    Channel *newNicChannel();

    RouterParams routerParams(int id) const;

    NetworkParams params_;
    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<Channel>> channels_;
    std::vector<NodePorts> ports_;

  private:
    Rng faultRng_{1, 0xfa17};
    bool faultRngSeeded_ = false;
    int degradedLinks_ = 0;
    /** Indices into channels_ of the internal links. */
    std::vector<int> internalIdx_;
};

/**
 * Build a topology by name. Understood names:
 *   mesh2d, mesh3d, torus2d, fattree, fattree-saf, cm5,
 *   butterfly, multibutterfly.
 * The name presets topology-specific fields of @p params (dims,
 * upArity, link width, VCs...) unless already set by the caller.
 */
std::unique_ptr<Network> makeNetwork(const std::string &name,
                                     NetworkParams params);

/** The list of canonical topology names used in the paper's plots. */
std::vector<std::string> paperTopologies();

} // namespace nifdy

#endif // NIFDY_NET_TOPOLOGY_HH
